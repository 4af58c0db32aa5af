//! Precedence trees (§4.2.2): binary trees over S (serial) and P
//! (parallel-and) operators whose leaves are timeline task segments.
//!
//! Construction follows the paper's phase rule: "each start or end of a
//! task indicates the start of a new phase. All tasks within the same
//! phase are executed in parallel, and tasks that belong to different
//! phases are executed sequentially." Scanning segments by start time, a
//! segment joins the current *wave* while it starts strictly before the
//! earliest end inside the wave; otherwise a new wave begins. Waves become
//! P-subtrees chained by S operators — which reproduces the paper's
//! running-example tree `S(P(m1,m2,m3), P(m4, r))` (Figure 7).
//!
//! "In order to reduce the maximal depth of precedence tree, we apply a
//! balancing procedure for each P-subtree" — `balance = true` builds each
//! wave as a balanced binary tree; `balance = false` (for the §5.2 depth
//! ablation) chains wave members left-deep.

use crate::timeline::Timeline;

/// A binary precedence tree. Leaves index into the timeline's segment
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub enum PrecTree {
    /// A task segment (index into [`Timeline::segments`]).
    Leaf(usize),
    /// Sequential composition.
    Serial(Box<PrecTree>, Box<PrecTree>),
    /// Parallel-and composition (both children must finish).
    Parallel(Box<PrecTree>, Box<PrecTree>),
}

impl PrecTree {
    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        match self {
            PrecTree::Leaf(_) => 1,
            PrecTree::Serial(a, b) | PrecTree::Parallel(a, b) => a.num_leaves() + b.num_leaves(),
        }
    }

    /// Maximal depth (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            PrecTree::Leaf(_) => 1,
            PrecTree::Serial(a, b) | PrecTree::Parallel(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Leaf indices in left-to-right order.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            PrecTree::Leaf(i) => out.push(*i),
            PrecTree::Serial(a, b) | PrecTree::Parallel(a, b) => {
                a.collect_leaves(out);
                b.collect_leaves(out);
            }
        }
    }

    /// Generic bottom-up evaluation: `leaf` maps a segment index to a
    /// value; `serial`/`parallel` combine child values.
    pub fn fold<T>(
        &self,
        leaf: &impl Fn(usize) -> T,
        serial: &impl Fn(T, T) -> T,
        parallel: &impl Fn(T, T) -> T,
    ) -> T {
        match self {
            PrecTree::Leaf(i) => leaf(*i),
            PrecTree::Serial(a, b) => serial(
                a.fold(leaf, serial, parallel),
                b.fold(leaf, serial, parallel),
            ),
            PrecTree::Parallel(a, b) => parallel(
                a.fold(leaf, serial, parallel),
                b.fold(leaf, serial, parallel),
            ),
        }
    }

    /// Pretty-print with segment labels from the timeline (for the
    /// Figure 7 style output of the examples).
    pub fn render(&self, tl: &Timeline) -> String {
        match self {
            PrecTree::Leaf(i) => {
                let s = &tl.segments[*i];
                let c = match s.class {
                    crate::input::TaskClass::Map => "m",
                    crate::input::TaskClass::ShuffleSort => "ss",
                    crate::input::TaskClass::Merge => "mg",
                };
                format!("{c}{}", s.index + 1)
            }
            PrecTree::Serial(a, b) => format!("S({}, {})", a.render(tl), b.render(tl)),
            PrecTree::Parallel(a, b) => format!("P({}, {})", a.render(tl), b.render(tl)),
        }
    }
}

/// Sort `keys` — `(start, end, segment index)` — into wave order, append
/// their segment indices to `members`, and push the offset in `members`
/// at which each wave begins onto `bounds`. The index breaks every tie, so
/// the order is total. Keys in timeline order are long sorted runs (a
/// job's maps are placed at non-decreasing starts), which the stable sort
/// merges in about linear time.
fn group(keys: &mut [(f64, f64, usize)], members: &mut Vec<usize>, bounds: &mut Vec<usize>) {
    keys.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut wave_min_end = f64::INFINITY;
    for (k, &(start, end, i)) in keys.iter().enumerate() {
        if k == 0 || start >= wave_min_end - 1e-9 {
            bounds.push(members.len());
            wave_min_end = end;
        } else {
            wave_min_end = wave_min_end.min(end);
        }
        members.push(i);
    }
}

/// Group segment indices into waves (see module docs). Segments must be
/// the indices to consider, in any order.
pub fn waves(tl: &Timeline, idx: Vec<usize>) -> Vec<Vec<usize>> {
    let mut keys: Vec<(f64, f64, usize)> = idx
        .into_iter()
        .map(|i| (tl.segments[i].start, tl.segments[i].end, i))
        .collect();
    let (mut members, mut bounds) = (Vec::with_capacity(keys.len()), Vec::new());
    group(&mut keys, &mut members, &mut bounds);
    bounds.push(members.len());
    bounds
        .windows(2)
        .map(|w| members[w[0]..w[1]].to_vec())
        .collect()
}

/// Every job's waves, in flat storage that a caller regrouping them many
/// times (the solver, once per A2–A6 iteration) refills instead of
/// allocating. Job `j`'s waves are those [`waves`] makes of `j`'s
/// segments.
#[derive(Debug, Default)]
pub struct Waves {
    /// Sort keys of the job being grouped.
    keys: Vec<(f64, f64, usize)>,
    /// Segment indices in wave order, job by job.
    members: Vec<usize>,
    /// Offset in `members` of each wave's first member, then
    /// `members.len()`.
    bounds: Vec<usize>,
    /// Index in `bounds` of each job's first wave, then the wave count.
    jobs: Vec<usize>,
    /// Each job's first start time (∞ for a job without segments).
    starts: Vec<f64>,
}

impl Waves {
    /// Group the waves of jobs `0..num_jobs` on `tl`, in place of the
    /// previous ones. Segments are placed job by job, so each job's
    /// segments must form one contiguous range, in job order.
    pub fn rebuild(&mut self, tl: &Timeline, num_jobs: usize) {
        self.members.clear();
        self.bounds.clear();
        self.jobs.clear();
        self.starts.clear();
        let mut lo = 0;
        for j in 0..num_jobs {
            self.keys.clear();
            let mut start = f64::INFINITY;
            for (i, s) in tl.segments.iter().enumerate().skip(lo) {
                if s.job as usize != j {
                    break;
                }
                self.keys.push((s.start, s.end, i));
                start = start.min(s.start);
            }
            lo += self.keys.len();
            self.jobs.push(self.bounds.len());
            self.starts.push(start);
            group(&mut self.keys, &mut self.members, &mut self.bounds);
        }
        assert_eq!(
            lo,
            tl.segments.len(),
            "each job's segments form one contiguous range, in job order"
        );
        self.jobs.push(self.bounds.len());
        self.bounds.push(self.members.len());
    }

    /// Job `job`'s waves in time order, each its members' segment
    /// indices in wave order.
    pub fn job(&self, job: usize) -> impl DoubleEndedIterator<Item = &[usize]> + Clone {
        self.bounds[self.jobs[job]..=self.jobs[job + 1]]
            .windows(2)
            .map(|w| &self.members[w[0]..w[1]])
    }

    /// Job `job`'s first start time — its FIFO queueing offset (∞ for a
    /// job without segments).
    pub fn job_start(&self, job: usize) -> f64 {
        self.starts[job]
    }

    /// Depth of the tree [`build_tree`] builds over job `job`'s segments,
    /// read off its waves (`None` for a job without segments). A balanced
    /// wave of `w` members has depth `1 + ⌈log₂ w⌉`, a left-deep one `w`,
    /// and each S level adds one to the deeper of its wave and the rest of
    /// the chain.
    pub(crate) fn tree_depth(&self, job: usize, balance: bool) -> Option<usize> {
        self.job(job)
            .rev()
            .map(|w| {
                if balance {
                    1 + w.len().next_power_of_two().trailing_zeros() as usize
                } else {
                    w.len()
                }
            })
            .reduce(|rest, wave| 1 + wave.max(rest))
    }
}

/// Build a P-subtree over one wave.
fn wave_tree(members: &[usize], balance: bool) -> PrecTree {
    assert!(!members.is_empty());
    if members.len() == 1 {
        return PrecTree::Leaf(members[0]);
    }
    if balance {
        let mid = members.len() / 2;
        PrecTree::Parallel(
            Box::new(wave_tree(&members[..mid], balance)),
            Box::new(wave_tree(&members[mid..], balance)),
        )
    } else {
        // Left-deep chain.
        let mut t = PrecTree::Leaf(members[0]);
        for &m in &members[1..] {
            t = PrecTree::Parallel(Box::new(t), Box::new(PrecTree::Leaf(m)));
        }
        t
    }
}

/// Build the precedence tree over a set of segments (`None` = all jobs,
/// `Some(j)` = only job `j`'s segments — Vianna's subset strategy for
/// per-job response times).
pub fn build_tree(tl: &Timeline, job: Option<u32>, balance: bool) -> Option<PrecTree> {
    let idx: Vec<usize> = tl
        .segments
        .iter()
        .enumerate()
        .filter(|(_, s)| job.is_none_or(|j| s.job == j))
        .map(|(i, _)| i)
        .collect();
    if idx.is_empty() {
        return None;
    }
    let ws = waves(tl, idx);
    let mut trees: Vec<PrecTree> = ws.iter().map(|w| wave_tree(w, balance)).collect();
    // Chain waves with S, right-associated.
    let mut t = trees.pop().expect("at least one wave");
    while let Some(prev) = trees.pop() {
        t = PrecTree::Serial(Box::new(prev), Box::new(t));
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TaskClass;
    use crate::timeline::{build_timeline, ShuffleSpec, TimelineConfig, TimelineJob};

    fn running_example() -> Timeline {
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
    fn running_example_waves() {
        let tl = running_example();
        let ws = waves(&tl, (0..tl.segments.len()).collect());
        // Wave 1: m1,m2,m3 at [0,10). Wave 2: m4 and the shuffle-sort at
        // [10,·). Wave 3: the merge.
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].len(), 3);
        assert_eq!(ws[1].len(), 2);
        assert_eq!(ws[2].len(), 1);
        assert!(ws[0]
            .iter()
            .all(|&i| tl.segments[i].class == TaskClass::Map));
        assert_eq!(tl.segments[ws[2][0]].class, TaskClass::Merge);
    }

    #[test]
    fn running_example_tree_shape() {
        let tl = running_example();
        let t = build_tree(&tl, None, true).unwrap();
        assert_eq!(t.num_leaves(), 6); // 4 maps + shuffle-sort + merge
        let rendered = t.render(&tl);
        // Figure 7 shape: the first wave is a P-subtree of three maps, the
        // second pairs m4 with the reduce's shuffle-sort.
        assert!(rendered.starts_with("S("), "rendered: {rendered}");
        assert!(
            rendered.contains("P(m4, ss1)") || rendered.contains("P(ss1, m4)"),
            "wave 2 should pair m4 with the shuffle: {rendered}"
        );
    }

    #[test]
    fn balancing_reduces_depth() {
        // One wide wave: 64 concurrent maps.
        let tl = build_timeline(
            &TimelineConfig::homogeneous(64, 1),
            &[TimelineJob {
                num_maps: 64,
                num_reduces: 0,
                map_duration: 1.0,
                merge_duration: 0.0,
                shuffle: ShuffleSpec::Fixed(0.0),
            }],
        );
        let balanced = build_tree(&tl, None, true).unwrap();
        let chain = build_tree(&tl, None, false).unwrap();
        assert_eq!(balanced.num_leaves(), 64);
        assert_eq!(chain.num_leaves(), 64);
        assert_eq!(balanced.depth(), 7); // ⌈log2 64⌉ + 1
        assert_eq!(chain.depth(), 64);
        assert!(balanced.depth() < chain.depth());
    }

    #[test]
    fn wave_depths_equal_the_built_trees() {
        let job = |num_maps, num_reduces| TimelineJob {
            num_maps,
            num_reduces,
            map_duration: 10.0,
            merge_duration: 6.0,
            shuffle: ShuffleSpec::Fixed(3.0),
        };
        let depths = |tl: &Timeline, ws: &Waves, j: usize, balance: bool| {
            let want = build_tree(tl, Some(j as u32), balance).map(|t| t.depth());
            assert_eq!(
                ws.tree_depth(j, balance),
                want,
                "job {j}, balance {balance}"
            );
            want
        };
        let mut ws = Waves::default();
        for w in [1u32, 2, 3, 64, 65] {
            // One wave of `w` maps.
            let tl = build_timeline(&TimelineConfig::homogeneous(w as usize, 1), &[job(w, 0)]);
            ws.rebuild(&tl, 1);
            assert_eq!(
                ws.job(0).map(<[usize]>::len).collect::<Vec<_>>(),
                [w as usize]
            );
            let log2 = (w as f64).log2().ceil() as usize;
            assert_eq!(depths(&tl, &ws, 0, true), Some(1 + log2));
            assert_eq!(depths(&tl, &ws, 0, false), Some(w as usize));
            // S-chains of waves, over several jobs and one without tasks.
            let jobs = [job(w, 0), job(2 * w + 1, 3), job(0, 0), job(w, 2)];
            for per_node in [1, 2] {
                let cfg = TimelineConfig::homogeneous(w as usize, per_node);
                let tl = build_timeline(&cfg, &jobs);
                ws.rebuild(&tl, jobs.len());
                for j in 0..jobs.len() {
                    for balance in [true, false] {
                        depths(&tl, &ws, j, balance);
                    }
                }
                assert_eq!(ws.tree_depth(2, true), None);
            }
        }
    }

    #[test]
    fn per_job_subset() {
        let cfg = TimelineConfig::homogeneous(2, 1);
        let job = TimelineJob {
            num_maps: 2,
            num_reduces: 0,
            map_duration: 5.0,
            merge_duration: 0.0,
            shuffle: ShuffleSpec::Fixed(0.0),
        };
        let tl = build_timeline(&cfg, &[job.clone(), job]);
        let t0 = build_tree(&tl, Some(0), true).unwrap();
        let t1 = build_tree(&tl, Some(1), true).unwrap();
        assert_eq!(t0.num_leaves(), 2);
        assert_eq!(t1.num_leaves(), 2);
        assert!(build_tree(&tl, Some(7), true).is_none());
        for i in t1.leaves() {
            assert_eq!(tl.segments[i].job, 1);
        }
    }

    #[test]
    fn fold_computes_makespan_on_serial_chain() {
        // Sanity: fold with (sum, max) over a serial chain of known spans.
        let tl = build_timeline(
            &TimelineConfig::homogeneous(1, 1),
            &[TimelineJob {
                num_maps: 3,
                num_reduces: 0,
                map_duration: 2.0,
                merge_duration: 0.0,
                shuffle: ShuffleSpec::Fixed(0.0),
            }],
        );
        let t = build_tree(&tl, None, true).unwrap();
        let total = t.fold(
            &|i| tl.segments[i].duration(),
            &|a, b| a + b,
            &|a: f64, b: f64| a.max(b),
        );
        assert!((total - 6.0).abs() < 1e-12);
    }
}
