//! Overlap factors and class populations from a timeline (§4.2.3).
//!
//! Following Mak & Lundstrom \[5\], "the queueing delay of task class i due
//! to task class j is directly proportional to their overlaps". From the
//! timeline we compute, per ordered class pair:
//!
//! ```text
//! o(i→j) = measure{ t : class i active ∧ class j active }
//!          ─────────────────────────────────────────────
//!          measure{ t : class i active }
//! ```
//!
//! i.e. the fraction of class i's active time during which class j is also
//! running — the probability a class-i task in service finds class-j work
//! competing with it. `α` collects same-job pairs (Figure 8's intra-job
//! factor), `β` cross-job pairs (inter-job).
//!
//! Class populations for the MVA are the time-average number of active
//! tasks of each class over that class's active period.
//!
//! Both read the same per-(job, class) activity sets, which
//! [`Activities::rebuild`] builds in one pass over the timeline's
//! segments, measuring each set, and each pair's common time, once.

use crate::timeline::Timeline;

/// A union of disjoint half-open intervals, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    ivs: Vec<(f64, f64)>,
}

impl IntervalSet {
    /// Build from possibly-overlapping intervals.
    #[cfg(test)]
    pub fn from_intervals(raw: Vec<(f64, f64)>) -> IntervalSet {
        let mut set = IntervalSet { ivs: raw };
        set.merge();
        set
    }

    /// Merge the held intervals, possibly overlapping and in any order,
    /// into sorted disjoint ones, in place. Intervals with equal starts
    /// merge to the same union in any order, so the sort need not be
    /// stable.
    fn merge(&mut self) {
        let ivs = &mut self.ivs;
        ivs.retain(|&(s, e)| e > s);
        ivs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut len = 0;
        for k in 0..ivs.len() {
            let (s, e) = ivs[k];
            if len > 0 && s <= ivs[len - 1].1 {
                ivs[len - 1].1 = ivs[len - 1].1.max(e);
            } else {
                ivs[len] = (s, e);
                len += 1;
            }
        }
        ivs.truncate(len);
    }

    /// Total measure.
    pub fn measure(&self) -> f64 {
        self.ivs.iter().map(|(s, e)| e - s).sum()
    }

    /// Measure of the intersection with another set (two-pointer sweep).
    ///
    /// Symmetric bit for bit: merged sets keep a gap between intervals,
    /// so on equal ends advancing either side meets an empty overlap
    /// next, and both orders add the same overlaps in the same order.
    pub fn intersection_measure(&self, other: &IntervalSet) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        while i < self.ivs.len() && j < other.ivs.len() {
            let (s1, e1) = self.ivs[i];
            let (s2, e2) = other.ivs[j];
            let lo = s1.max(s2);
            let hi = e1.min(e2);
            if hi > lo {
                acc += hi - lo;
            }
            if e1 < e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        acc
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }
}

/// When one (job, class) was active on a timeline, and how much task
/// time it ran there. Built only by [`Activities::rebuild`].
#[derive(Debug, Clone, Default)]
pub struct ClassActivity {
    /// Union of the class's segment intervals.
    active: IntervalSet,
    /// `active`'s measure.
    span: f64,
    /// Sum of the class's segment durations, in segment order.
    busy: f64,
}

impl ClassActivity {
    /// Time-average number of active class tasks over the class's
    /// active period: `busy / measure(active)`. Zero for an idle class.
    pub fn population(&self) -> f64 {
        if self.span <= 0.0 {
            return 0.0;
        }
        self.busy / self.span
    }

    /// `o(self→other)`, given `meet`, the measure of the two classes'
    /// common active time: the fraction of this class's active time
    /// during which `other` is active too (zero for an idle class).
    fn overlap(&self, meet: f64) -> f64 {
        if self.span <= 0.0 {
            0.0
        } else {
            meet / self.span
        }
    }
}

/// Every (job, class)'s activity on a timeline, indexed `[job][class]`,
/// in storage that a caller rebuilding it many times (the solver's A3,
/// once per iteration) refills instead of allocating.
#[derive(Debug, Default)]
pub struct Activities {
    jobs: Vec<[ClassActivity; 3]>,
    /// `meet[p·n + q]`, `n` = 3 × jobs: the common active time of classes
    /// `p` and `q`, class `3j + c` being job `j`'s class `c`.
    meet: Vec<f64>,
}

impl std::ops::Index<usize> for Activities {
    type Output = [ClassActivity; 3];

    fn index(&self, job: usize) -> &[ClassActivity; 3] {
        &self.jobs[job]
    }
}

impl Activities {
    /// Rebuild from one pass over the timeline's segments, in place of
    /// the previous activities, and measure each unordered pair of
    /// classes' common active time once. Every segment must belong to a
    /// job below `num_jobs`.
    pub fn rebuild(&mut self, tl: &Timeline, num_jobs: u32) {
        self.jobs.resize_with(num_jobs as usize, Default::default);
        for act in self.jobs.iter_mut().flatten() {
            act.active.ivs.clear();
        }
        for s in &tl.segments {
            self.jobs[s.job as usize][s.class.index()]
                .active
                .ivs
                .push((s.start, s.end));
        }
        for act in self.jobs.iter_mut().flatten() {
            act.busy = act.active.ivs.iter().map(|&(s, e)| e - s).sum();
            act.active.merge();
            act.span = act.active.measure();
        }
        let act = &self.jobs;
        let n = 3 * act.len();
        self.meet.clear();
        self.meet.resize(n * n, 0.0);
        for p in 0..n {
            let a = &act[p / 3][p % 3].active;
            if a.is_empty() {
                continue;
            }
            for q in p..n {
                let m = a.intersection_measure(&act[q / 3][q % 3].active);
                self.meet[p * n + q] = m;
                self.meet[q * n + p] = m;
            }
        }
    }

    /// The overlap-factor matrices α and β.
    pub fn overlap_factors(&self) -> OverlapFactors {
        let act = &self.jobs;
        let n = 3 * act.len();
        let mut alpha = [[0.0f64; 3]; 3];
        let mut alpha_n = [[0u32; 3]; 3];
        let mut beta = [[0.0f64; 3]; 3];
        let mut beta_n = [[0u32; 3]; 3];
        for a in 0..act.len() {
            for b in 0..act.len() {
                for i in 0..3 {
                    if act[a][i].active.is_empty() {
                        continue;
                    }
                    let row = &self.meet[(3 * a + i) * n + 3 * b..][..3];
                    for j in 0..3 {
                        let f = act[a][i].overlap(row[j]);
                        if a == b {
                            alpha[i][j] += f;
                            alpha_n[i][j] += 1;
                        } else {
                            beta[i][j] += f;
                            beta_n[i][j] += 1;
                        }
                    }
                }
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                if alpha_n[i][j] > 0 {
                    alpha[i][j] /= alpha_n[i][j] as f64;
                }
                if beta_n[i][j] > 0 {
                    beta[i][j] /= beta_n[i][j] as f64;
                }
            }
        }
        OverlapFactors { alpha, beta }
    }
}

/// The overlap-factor matrices of a workload of `num_jobs` jobs.
#[derive(Debug, Clone)]
pub struct OverlapFactors {
    /// Intra-job factors `α[i][j]`, averaged over jobs.
    pub alpha: [[f64; 3]; 3],
    /// Inter-job factors `β[i][j]`, averaged over ordered job pairs
    /// (all-zero for a single job).
    pub beta: [[f64; 3]; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TaskClass;
    use crate::timeline::{build_timeline, ShuffleSpec, TimelineConfig, TimelineJob};

    /// Oracle: the activity set of one (job, class) by filtering every
    /// segment, as A3 computed it before the one-pass [`Activities::rebuild`].
    fn filtered_activity(tl: &Timeline, job: u32, class: TaskClass) -> IntervalSet {
        IntervalSet::from_intervals(
            tl.segments
                .iter()
                .filter(|s| s.job == job && s.class == class)
                .map(|s| (s.start, s.end))
                .collect(),
        )
    }

    /// Oracle: one (job, class)'s population by per-class filters.
    fn filtered_population(tl: &Timeline, job: u32, class: TaskClass) -> f64 {
        let act = filtered_activity(tl, job, class);
        let span = act.measure();
        if span <= 0.0 {
            return 0.0;
        }
        let busy: f64 = tl
            .segments
            .iter()
            .filter(|s| s.job == job && s.class == class)
            .map(|s| s.duration())
            .sum();
        busy / span
    }

    /// Oracle: α and β over activity sets built by per-class filters,
    /// as A3 computed them before the one-pass [`Activities::rebuild`].
    fn filtered_overlap_factors(tl: &Timeline, num_jobs: u32) -> OverlapFactors {
        // Pre-compute activities.
        let act: Vec<[IntervalSet; 3]> = (0..num_jobs)
            .map(|j| {
                [
                    filtered_activity(tl, j, TaskClass::Map),
                    filtered_activity(tl, j, TaskClass::ShuffleSort),
                    filtered_activity(tl, j, TaskClass::Merge),
                ]
            })
            .collect();

        let factor = |a: &IntervalSet, b: &IntervalSet| -> f64 {
            let m = a.measure();
            if m <= 0.0 {
                0.0
            } else {
                a.intersection_measure(b) / m
            }
        };

        let mut alpha = [[0.0f64; 3]; 3];
        let mut alpha_n = [[0u32; 3]; 3];
        let mut beta = [[0.0f64; 3]; 3];
        let mut beta_n = [[0u32; 3]; 3];
        for a in 0..num_jobs as usize {
            for b in 0..num_jobs as usize {
                for i in 0..3 {
                    if act[a][i].is_empty() {
                        continue;
                    }
                    for j in 0..3 {
                        let f = factor(&act[a][i], &act[b][j]);
                        if a == b {
                            alpha[i][j] += f;
                            alpha_n[i][j] += 1;
                        } else {
                            beta[i][j] += f;
                            beta_n[i][j] += 1;
                        }
                    }
                }
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                if alpha_n[i][j] > 0 {
                    alpha[i][j] /= alpha_n[i][j] as f64;
                }
                if beta_n[i][j] > 0 {
                    beta[i][j] /= beta_n[i][j] as f64;
                }
            }
        }
        OverlapFactors { alpha, beta }
    }

    /// A fresh [`Activities`] of `tl`.
    fn activities(tl: &Timeline, num_jobs: u32) -> Activities {
        let mut act = Activities::default();
        act.rebuild(tl, num_jobs);
        act
    }

    fn population(tl: &Timeline, job: u32, class: TaskClass) -> f64 {
        activities(tl, job + 1)[job as usize][class.index()].population()
    }

    #[test]
    fn interval_set_merges() {
        let s = IntervalSet::from_intervals(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]);
        assert!((s.measure() - 4.0).abs() < 1e-12);
        let t = IntervalSet::from_intervals(vec![(2.5, 5.5)]);
        assert!((s.intersection_measure(&t) - 1.0).abs() < 1e-12);
        assert!((t.intersection_measure(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_measure_is_symmetric_bit_for_bit() {
        // Ends drawn from a coarse grid meet often (equal ends, touching
        // and nested intervals); fine offsets make the sums round.
        let mut state = 0x853c_49e6_748f_ea9b_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let set = |next: &mut dyn FnMut(u64) -> u64| {
            let len = next(12) as usize;
            let point = |next: &mut dyn FnMut(u64) -> u64| match next(2) {
                0 => next(24) as f64 * 0.5,
                _ => next(24) as f64 * 0.5 + next(1 << 20) as f64 * 1e-7,
            };
            IntervalSet::from_intervals(
                (0..len)
                    .map(|_| {
                        let (x, y) = (point(next), point(next));
                        (x.min(y), x.max(y))
                    })
                    .collect(),
            )
        };
        let mut equal_ends = 0;
        for _ in 0..20_000 {
            let a = set(&mut next);
            let b = set(&mut next);
            let ab = a.intersection_measure(&b);
            assert_eq!(
                ab.to_bits(),
                b.intersection_measure(&a).to_bits(),
                "{a:?} {b:?}"
            );
            equal_ends += a
                .ivs
                .iter()
                .filter(|x| b.ivs.iter().any(|y| x.1 == y.1))
                .count();
        }
        assert!(equal_ends > 500, "{equal_ends} equal ends");
    }

    #[test]
    fn empty_intervals_dropped() {
        let s = IntervalSet::from_intervals(vec![(1.0, 1.0), (2.0, 1.0)]);
        assert!(s.is_empty());
        assert_eq!(s.measure(), 0.0);
    }

    fn one_job_tl() -> Timeline {
        build_timeline(
            &TimelineConfig {
                capacities: vec![1; 3],
                slow_start: true,
            },
            &[TimelineJob {
                num_maps: 4,
                num_reduces: 1,
                map_duration: 10.0,
                merge_duration: 6.0,
                shuffle: ShuffleSpec::PerRemoteMap { sd: 2.0, base: 1.0 },
            }],
        )
    }

    #[test]
    fn populations_match_hand_computation() {
        let tl = one_job_tl();
        // Maps: 3 active on [0,10), 1 on [10,20): avg = (30+10)/20 = 2.
        assert!((population(&tl, 0, TaskClass::Map) - 2.0).abs() < 1e-12);
        // One reduce: populations exactly 1 while active.
        assert!((population(&tl, 0, TaskClass::ShuffleSort) - 1.0).abs() < 1e-12);
        assert!((population(&tl, 0, TaskClass::Merge) - 1.0).abs() < 1e-12);
        // Idle class of a map-only timeline is 0.
        let tl2 = build_timeline(
            &TimelineConfig::homogeneous(1, 1),
            &[TimelineJob {
                num_maps: 1,
                num_reduces: 0,
                map_duration: 1.0,
                merge_duration: 0.0,
                shuffle: ShuffleSpec::Fixed(0.0),
            }],
        );
        assert_eq!(population(&tl2, 0, TaskClass::Merge), 0.0);
    }

    #[test]
    fn intra_job_factors() {
        let tl = one_job_tl();
        let f = activities(&tl, 1).overlap_factors();
        // Maps active [0,20); shuffle-sort [10,17): overlap 7.
        // α[map][ss] = 7/20; α[ss][map] = 7/7 = 1.
        assert!((f.alpha[0][1] - 0.35).abs() < 1e-9, "{}", f.alpha[0][1]);
        assert!((f.alpha[1][0] - 1.0).abs() < 1e-9);
        // Diagonals are 1 (a class always overlaps itself while active).
        for i in 0..2 {
            assert!((f.alpha[i][i] - 1.0).abs() < 1e-12);
        }
        // Merge [17,23) does not overlap maps [0,20)… it does: 3/6.
        assert!((f.alpha[2][0] - 0.5).abs() < 1e-9);
        // Single job → β all zero.
        assert_eq!(f.beta, [[0.0; 3]; 3]);
    }

    #[test]
    fn inter_job_factors_symmetric_jobs() {
        let cfg = TimelineConfig::homogeneous(2, 1);
        let job = TimelineJob {
            num_maps: 2,
            num_reduces: 0,
            map_duration: 5.0,
            merge_duration: 0.0,
            shuffle: ShuffleSpec::Fixed(0.0),
        };
        let tl = build_timeline(&cfg, &[job.clone(), job]);
        let f = activities(&tl, 2).overlap_factors();
        // Jobs run serially (2 containers, 2 maps each): no map overlap.
        assert_eq!(f.beta[0][0], 0.0);
        assert!((f.alpha[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_pass_activities_equal_the_per_class_filters() {
        // Multi-job timelines: mixed shapes, container pools from one to
        // many, slow start on and off, and both shuffle rules, so that
        // jobs' classes interleave in the segment list.
        let shapes = [
            (6, 2, 10.0, 3.0, 2.5),
            (1, 0, 4.0, 0.0, 0.0),
            (17, 5, 7.25, 1.5, 0.75),
            (3, 3, 0.5, 9.0, 4.0),
        ];
        let mut checked = 0;
        for num_jobs in 1..=4u32 {
            for (nodes, per_node) in [(1, 1), (2, 3), (5, 4)] {
                for slow_start in [true, false] {
                    for per_remote in [false, true] {
                        let jobs: Vec<TimelineJob> = (0..num_jobs as usize)
                            .map(|j| {
                                let (m, r, map, merge, shuffle) = shapes[j % shapes.len()];
                                TimelineJob {
                                    num_maps: m,
                                    num_reduces: r,
                                    map_duration: map,
                                    merge_duration: merge,
                                    shuffle: if per_remote {
                                        ShuffleSpec::PerRemoteMap {
                                            sd: shuffle,
                                            base: 0.5,
                                        }
                                    } else {
                                        ShuffleSpec::Fixed(shuffle)
                                    },
                                }
                            })
                            .collect();
                        let cfg = TimelineConfig {
                            capacities: vec![per_node; nodes],
                            slow_start,
                        };
                        let tl = build_timeline(&cfg, &jobs);
                        let act = activities(&tl, num_jobs);
                        for j in 0..num_jobs {
                            for class in TaskClass::ALL {
                                let got = act[j as usize][class.index()].population();
                                let want = filtered_population(&tl, j, class);
                                assert_eq!(got.to_bits(), want.to_bits(), "job {j} {class:?}");
                            }
                        }
                        let got = act.overlap_factors();
                        let want = filtered_overlap_factors(&tl, num_jobs);
                        for (g, w) in got.alpha.iter().flatten().zip(want.alpha.iter().flatten()) {
                            assert_eq!(g.to_bits(), w.to_bits(), "alpha");
                        }
                        for (g, w) in got.beta.iter().flatten().zip(want.beta.iter().flatten()) {
                            assert_eq!(g.to_bits(), w.to_bits(), "beta");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 48);
    }
}
