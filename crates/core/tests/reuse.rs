//! The solver keeps one timeline builder, one wave buffer and one
//! activity buffer for a whole solve and refills them on every A2–A6
//! iteration. This drives each through a seeded sequence of timelines
//! that grows and shrinks every dimension they size storage by, and
//! checks every output against a fresh build, bit for bit.

use mr2_model::input::TaskClass;
use mr2_model::overlap::Activities;
use mr2_model::timeline::{
    build_timeline, ShuffleSpec, Timeline, TimelineBuilder, TimelineConfig, TimelineJob,
};
use mr2_model::tree::{waves, Waves};

/// SplitMix64: a small seeded generator, enough to vary the inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn coin(&mut self) -> bool {
        self.next() >> 63 == 1
    }

    /// A duration in `[0, scale)`, on a grid that makes ties common.
    fn duration(&mut self, scale: f64) -> f64 {
        self.range(0, 63) as f64 * scale / 64.0
    }
}

fn random_input(rng: &mut Rng) -> (TimelineConfig, Vec<TimelineJob>) {
    let nodes = rng.range(1, 12) as usize;
    let max_cap = rng.range(1, 6) as u32;
    let capacities = (0..nodes)
        .map(|_| rng.range(1, max_cap as u64) as u32)
        .collect();
    let jobs = (0..rng.range(1, 6))
        .map(|_| {
            // A job may have no maps, no reduces, or no tasks at all.
            let num_maps = rng.range(0, 40) as u32;
            let num_reduces = rng.range(0, 8) as u32;
            let shuffle = if rng.coin() {
                ShuffleSpec::Fixed(rng.duration(20.0))
            } else {
                ShuffleSpec::PerRemoteMap {
                    sd: rng.duration(4.0),
                    base: rng.duration(3.0),
                }
            };
            TimelineJob {
                num_maps,
                num_reduces,
                map_duration: 1e-9 + rng.duration(50.0),
                merge_duration: rng.duration(30.0),
                shuffle,
            }
        })
        .collect();
    let cfg = TimelineConfig {
        capacities,
        slow_start: rng.coin(),
    };
    (cfg, jobs)
}

fn segment_bits(tl: &Timeline) -> Vec<(u32, usize, u32, u32, u64, u64)> {
    tl.segments
        .iter()
        .map(|s| {
            let class = s.class.index();
            (
                s.job,
                class,
                s.index,
                s.node,
                s.start.to_bits(),
                s.end.to_bits(),
            )
        })
        .collect()
}

/// Populations `[job][class]` and then α and β, as bits.
fn activity_bits(act: &Activities, num_jobs: usize) -> Vec<u64> {
    let mut bits: Vec<u64> = (0..num_jobs)
        .flat_map(|j| TaskClass::ALL.map(|c| act[j][c.index()].population().to_bits()))
        .collect();
    let f = act.overlap_factors();
    bits.extend(f.alpha.iter().flatten().map(|x| x.to_bits()));
    bits.extend(f.beta.iter().flatten().map(|x| x.to_bits()));
    bits
}

#[test]
fn reused_state_equals_fresh_builds() {
    let mut rng = Rng(20);
    let mut builder = TimelineBuilder::default();
    let mut reused_waves = Waves::default();
    let mut reused_act = Activities::default();
    // How often each sized dimension grew and shrank between steps, and
    // which slow-start and shuffle settings were seen.
    let (mut prev_nodes, mut prev_cap, mut prev_jobs) = (0, 0, 0);
    let mut moves = [[0usize; 2]; 3];
    let mut seen = [[false; 2]; 2];
    for step in 0..400 {
        let (cfg, jobs) = random_input(&mut rng);
        let num_jobs = jobs.len();
        let tl = builder.build(&cfg, &jobs);
        let fresh = build_timeline(&cfg, &jobs);
        assert_eq!(tl.num_nodes, fresh.num_nodes, "step {step}");
        assert_eq!(
            segment_bits(tl),
            segment_bits(&fresh),
            "step {step}: segments"
        );

        reused_waves.rebuild(tl, num_jobs);
        for j in 0..num_jobs {
            let idx: Vec<usize> = (0..fresh.segments.len())
                .filter(|&i| fresh.segments[i].job as usize == j)
                .collect();
            let got: Vec<Vec<usize>> = reused_waves.job(j).map(<[usize]>::to_vec).collect();
            assert_eq!(got, waves(&fresh, idx), "step {step}: job {j}'s waves");
            let first_start = fresh
                .segments
                .iter()
                .filter(|s| s.job as usize == j)
                .map(|s| s.start)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                reused_waves.job_start(j).to_bits(),
                first_start.to_bits(),
                "step {step}: job {j}'s start"
            );
        }

        reused_act.rebuild(tl, num_jobs as u32);
        let mut fresh_act = Activities::default();
        fresh_act.rebuild(&fresh, num_jobs as u32);
        assert_eq!(
            activity_bits(&reused_act, num_jobs),
            activity_bits(&fresh_act, num_jobs),
            "step {step}: populations, α and β"
        );

        let cap = *cfg.capacities.iter().max().expect("at least one node");
        for (d, (now, prev)) in [
            (cfg.capacities.len(), prev_nodes),
            (cap as usize, prev_cap),
            (num_jobs, prev_jobs),
        ]
        .into_iter()
        .enumerate()
        {
            if step > 0 && now != prev {
                moves[d][usize::from(now < prev)] += 1;
            }
        }
        (prev_nodes, prev_cap, prev_jobs) = (cfg.capacities.len(), cap as usize, num_jobs);
        seen[0][usize::from(cfg.slow_start)] = true;
        for job in &jobs {
            seen[1][usize::from(matches!(job.shuffle, ShuffleSpec::Fixed(_)))] = true;
        }
    }
    for (d, name) in ["nodes", "pool size", "jobs"].iter().enumerate() {
        assert!(
            moves[d].iter().all(|&n| n >= 20),
            "{name} moves: {:?}",
            moves[d]
        );
    }
    assert_eq!(seen, [[true; 2]; 2], "slow start and both shuffle rules");
}
