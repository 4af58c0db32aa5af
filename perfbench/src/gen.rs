//! Seeded request generation for the three workloads. Every body is
//! built here from `--seed`; the service only ever receives them.

use std::collections::HashSet;

use crate::rng::Rng;

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct `/v1/estimate` bodies: every request is a solver run.
    EstimateCold,
    /// A warmed hot set of 256 `/v1/estimate` bodies: every request is
    /// a result-cache hit.
    EstimateHot,
    /// Streaming simulator-only `/v1/scenario` sweeps with fresh seeds.
    SweepSim,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "estimate_cold" => Some(Workload::EstimateCold),
            "estimate_hot" => Some(Workload::EstimateHot),
            "sweep_sim" => Some(Workload::SweepSim),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateCold => "estimate_cold",
            Workload::EstimateHot => "estimate_hot",
            Workload::SweepSim => "sweep_sim",
        }
    }

    pub fn path(self) -> &'static str {
        match self {
            Workload::SweepSim => "/v1/scenario",
            _ => "/v1/estimate",
        }
    }

}

/// One generated request body.
#[derive(Debug, Clone)]
pub struct Body {
    /// The body's key in `golden.txt`: its catalogue index (cold), its
    /// index in the hot set, or pass × 10 + its dealt sweep (sweeps).
    pub id: usize,
    /// Which request of a round this is: a slot does the same work in
    /// every round (the catalogue index, the hot-set index, or the
    /// dealt sweep).
    pub slot: usize,
    pub json: String,
    /// Points the reply carries: 1 for an estimate, the sweep size for
    /// a sweep.
    pub points: usize,
    /// Endpoint-memo lookups of this request that solve one job alone.
    /// Such solves are the only ones two distinct requests can share,
    /// so they bound the memo hits a cold run may see.
    pub solo_lookups: u64,
}

const JOBS: [&str; 3] = ["wordcount", "terasort", "grep"];
const COUNTS: [u64; 3] = [1, 2, 4];
const STAGGER_MS: [u64; 4] = [15_000, 30_000, 60_000, 120_000];
/// Open arrival rates (jobs/second), low enough that every generated
/// cluster stays below saturation, so every estimate is finite.
const RATES: [f64; 3] = [2e-5, 5e-5, 1e-4];

/// One class of a workload mix: job kind, input in 256 MB steps, copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Class {
    job: usize,
    input_steps: u64,
    count: u64,
}

/// The range one generator draws classes from.
#[derive(Debug, Clone, Copy)]
struct Grid {
    max_nodes: u64,
    /// Largest input, in 256 MB steps.
    max_steps: u64,
    counts: &'static [u64],
}

/// The cold grid: 1–16 nodes, 256 MB–4 GB, count ∈ {1, 2, 4}.
const COLD: Grid = Grid {
    max_nodes: 16,
    max_steps: 16,
    counts: &COUNTS,
};

/// The hot set's corner of the grid: 1–8 nodes, 256 MB–1 GB, count
/// ∈ {1, 2}. Its solves are cheap, so warming it keeps set-up short;
/// once warm, a reply's cost does not depend on the solve behind it.
const SMALL: Grid = Grid {
    max_nodes: 8,
    max_steps: 4,
    counts: &[1, 2],
};

fn draw_class(rng: &mut Rng, grid: Grid) -> Class {
    Class {
        job: rng.below(JOBS.len() as u64) as usize,
        input_steps: 1 + rng.below(grid.max_steps),
        count: rng.pick(grid.counts),
    }
}

/// Grow a mix to two or three classes with distinct (job, input)
/// pairs, so no two bodies spell the same solver input in different
/// ways.
fn add_classes(rng: &mut Rng, grid: Grid, classes: &mut Vec<Class>) {
    let n = 2 + rng.below(2) as usize;
    while classes.len() < n {
        let c = draw_class(rng, grid);
        if !classes
            .iter()
            .any(|o| o.job == c.job && o.input_steps == c.input_steps)
        {
            classes.push(c);
        }
    }
}

/// The solver identity of an estimate: nodes, classes, and the open
/// rate. Staggered and batch arrivals of one mix share the full solve,
/// so they share an identity and at most one of them is drawn.
type Identity = (u64, Vec<Class>, Option<u64>);

#[derive(Debug, Clone, Copy)]
enum Shape {
    Single,
    /// 2–3 classes, half of them with staggered arrivals.
    Mix,
    /// One class or a mix under an open `arrival_rate`.
    Open,
}

/// Shapes of 32 bodies: a quarter mixes, a tenth open, the rest
/// single; a block of another length takes them in proportion.
const BLOCK_SHAPES: [(Shape, usize); 3] = [(Shape::Single, 21), (Shape::Mix, 8), (Shape::Open, 3)];

/// Draws distinct estimate bodies from the seeded grid: job ∈
/// {wordcount, terasort, grep}, nodes, input in 256 MB steps, and a
/// copy count per class.
///
/// Bodies come in blocks, a Latin design over the dimensions a solve's
/// cost grows with: within a block the grid's node counts and input
/// sizes are spread evenly, and the copy counts, jobs and shapes come
/// in fixed proportions; the generator's seed pairs them up.
struct EstimateGen {
    rng: Rng,
    grid: Grid,
    block: usize,
    seen: HashSet<Identity>,
    queue: Vec<Body>,
}

impl EstimateGen {
    fn new(rng: Rng, grid: Grid, block: usize) -> EstimateGen {
        EstimateGen {
            rng,
            grid,
            block,
            seen: HashSet::new(),
            queue: Vec::new(),
        }
    }

    fn next_body(&mut self) -> Body {
        loop {
            if let Some(b) = self.queue.pop() {
                return b;
            }
            self.fill_block();
        }
    }

    /// `len` levels spread evenly over `values`, in seeded order.
    fn levels<T: Copy>(&mut self, values: &[T], len: usize) -> Vec<T> {
        let mut out: Vec<T> = (0..len).map(|i| values[i * values.len() / len]).collect();
        self.rng.shuffle(&mut out);
        out
    }

    fn fill_block(&mut self) {
        let (grid, block) = (self.grid, self.block);
        let nodes = self.levels(&(1..=grid.max_nodes).collect::<Vec<_>>(), block);
        let steps = self.levels(&(1..=grid.max_steps).collect::<Vec<_>>(), block);
        let counts = self.levels(grid.counts, block);
        let jobs = self.levels(&[0, 1, 2], block);
        let shapes: Vec<Shape> = BLOCK_SHAPES
            .iter()
            .flat_map(|&(shape, n)| std::iter::repeat_n(shape, n))
            .collect();
        let shapes = self.levels(&shapes, block);
        for i in 0..block {
            let first = Class {
                job: jobs[i],
                input_steps: steps[i],
                count: counts[i],
            };
            // Redraw the other classes until the body is new; a lone
            // class that repeats an earlier body is skipped.
            for _ in 0..16 {
                let rng = &mut self.rng;
                let mut classes = vec![first];
                let (mut stagger, mut rate) = (None, None);
                match shapes[i] {
                    Shape::Single => {}
                    Shape::Mix => {
                        add_classes(rng, grid, &mut classes);
                        stagger = (rng.below(2) == 0).then(|| rng.pick(&STAGGER_MS));
                    }
                    Shape::Open => {
                        if rng.below(2) == 0 {
                            add_classes(rng, grid, &mut classes);
                        }
                        rate = Some(rng.pick(&RATES));
                    }
                }
                if self
                    .seen
                    .insert((nodes[i], classes.clone(), rate.map(f64::to_bits)))
                {
                    self.queue
                        .push(estimate_body(nodes[i], &classes, stagger, rate));
                    break;
                }
            }
        }
        self.queue.reverse();
    }
}

fn estimate_body(nodes: u64, classes: &[Class], stagger: Option<u64>, rate: Option<f64>) -> Body {
    let mix: Vec<String> = classes
        .iter()
        .map(|c| {
            format!(
                r#"{{"job":"{}","input_bytes":{},"count":{}}}"#,
                JOBS[c.job],
                c.input_steps * 256 * MB,
                c.count
            )
        })
        .collect();
    let mut json = format!(r#"{{"nodes":{nodes},"mix":[{}]"#, mix.join(","));
    if let Some(ms) = stagger {
        json.push_str(&format!(r#","arrivals":{{"staggered_ms":{ms}}}"#));
    }
    if let Some(r) = rate {
        json.push_str(&format!(r#","arrival_rate":{r}"#));
    }
    json.push('}');
    // Open and staggered solves run every class alone; a lone batch job
    // of count 1 is itself a solo solve. Each solo run is one fork/join
    // and one Tripathi lookup.
    let solo_classes = if rate.is_some() || stagger.is_some() {
        classes.len() as u64
    } else if classes.len() == 1 && classes[0].count == 1 {
        1
    } else {
        0
    };
    Body {
        id: 0,
        slot: 0,
        json,
        points: 1,
        solo_lookups: 2 * solo_classes,
    }
}

/// Seed of the cold catalogue (see [`cold_round`]).
const CATALOGUE_SEED: u64 = 0x5eed_c01d;

/// Bodies of one `estimate_cold` round.
pub const COLD_ROUND: usize = 16;

/// The `estimate_cold` round for `seed`: one catalogue of
/// [`COLD_ROUND`] distinct grid points, drawn once from a fixed seed as
/// one Latin block (node counts 1–16 and inputs 256 MB–4 GB in 256 MB
/// steps each once), in an order `seed` shuffles.
///
/// A solve's cost varies by orders of magnitude across the grid, and no
/// cheap formula predicts it, so letting the seed pick the points would
/// make every run measure a different amount of work. Every round
/// sends the same catalogue to a fresh server, so every round does the
/// same work whatever the seed, and every request is cold.
pub fn cold_round(seed: u64) -> Vec<Body> {
    let mut catalogue = EstimateGen::new(Rng::stream(CATALOGUE_SEED, 1), COLD, COLD_ROUND);
    let mut bodies: Vec<Body> = (0..COLD_ROUND)
        .map(|id| Body {
            id,
            slot: id,
            ..catalogue.next_body()
        })
        .collect();
    Rng::stream(seed, 1).shuffle(&mut bodies);
    bodies
}

/// Size of the `estimate_hot` set.
pub const HOT_SET: usize = 256;

/// The 256 distinct bodies of the hot set.
pub fn hot_bodies(seed: u64) -> Vec<Body> {
    let mut g = EstimateGen::new(Rng::stream(seed, 2), SMALL, 32);
    (0..HOT_SET)
        .map(|id| Body {
            id,
            slot: id,
            ..g.next_body()
        })
        .collect()
}

/// Requests of one `estimate_hot` round: four passes over the set.
pub const HOT_ROUND: usize = 4 * HOT_SET;

/// Replay order over the hot set: 16 shuffled rounds, cycled.
pub fn hot_order(seed: u64) -> Vec<usize> {
    let mut rng = Rng::stream(seed, 3);
    let mut order = Vec::with_capacity(16 * HOT_SET);
    for _ in 0..16 {
        let mut round: Vec<usize> = (0..HOT_SET).collect();
        rng.shuffle(&mut round);
        order.extend(round);
    }
    order
}

/// Simulator repetitions per sweep point.
const SIM_REPS: u64 = 2;

/// Sweep sizes of one pass over the 144 combinations.
const SWEEP_SIZES: [usize; 10] = [12, 13, 14, 14, 14, 14, 15, 16, 16, 16];

/// One point of the sweep grid: nodes, input GB, n_jobs, scheduler,
/// map failure probability.
type Combo = (u64, u64, u64, &'static str, &'static str);

/// Sweep bodies, pass by pass. The 144 combinations of nodes
/// {8, 16, 24, 32} × input {2, 4, 8 GB} × n_jobs {1, 2, 4} ×
/// scheduler {capacity_fifo, fair} × map_failure_prob {0, 0.05} are
/// dealt once into ten zip sweeps of 12–16 points: sorted by size
/// (input × jobs) and dealt snake-wise, so every sweep gets a like mix
/// of small and large points, listed smallest first. The dealing is
/// fixed, so every pass does the same work whatever the seed; `seed`
/// orders the sweeps of each pass and gives each sweep a fresh
/// simulator seed, so every point misses the result cache.
pub struct Sweeps {
    deal: Vec<Vec<Combo>>,
    rng: Rng,
    passes: usize,
}

impl Sweeps {
    pub fn new(seed: u64) -> Sweeps {
        let mut combos: Vec<Combo> = Vec::with_capacity(144);
        for nodes in [8u64, 16, 24, 32] {
            for input_gb in [2u64, 4, 8] {
                for n_jobs in [1u64, 2, 4] {
                    for scheduler in ["capacity_fifo", "fair"] {
                        for fail in ["0", "0.05"] {
                            combos.push((nodes, input_gb, n_jobs, scheduler, fail));
                        }
                    }
                }
            }
        }
        let mut deal = Rng::stream(CATALOGUE_SEED, 4);
        deal.shuffle(&mut combos);
        combos.sort_by_key(|c| c.1 * c.2);
        let mut sizes = SWEEP_SIZES;
        deal.shuffle(&mut sizes);
        let mut sweeps: Vec<Vec<Combo>> = vec![Vec::new(); sizes.len()];
        let mut next = combos.iter();
        for round in 0.. {
            let mut dealt = false;
            for k in 0..sizes.len() {
                let s = if round % 2 == 0 {
                    k
                } else {
                    sizes.len() - 1 - k
                };
                if sweeps[s].len() < sizes[s] {
                    if let Some(&c) = next.next() {
                        sweeps[s].push(c);
                        dealt = true;
                    }
                }
            }
            if !dealt {
                break;
            }
        }
        Sweeps {
            deal: sweeps,
            rng: Rng::stream(seed, 4),
            passes: 0,
        }
    }

    /// The next pass: every dealt sweep once, in seeded order.
    pub fn next_pass(&mut self) -> Vec<Body> {
        let mut order: Vec<usize> = (0..self.deal.len()).collect();
        self.rng.shuffle(&mut order);
        let pass = self.passes;
        self.passes += 1;
        order
            .into_iter()
            .map(|s| {
                let sweep = &self.deal[s];
                let list = |f: &dyn Fn(&Combo) -> String| {
                    sweep.iter().map(f).collect::<Vec<_>>().join(",")
                };
                let sweep_seed = self.rng.next_u64() >> 12;
                let id = pass * self.deal.len() + s;
                let json = format!(
                    r#"{{"name":"perfbench-{id}","sweep":"zip","nodes":[{}],"input_bytes":[{}],"n_jobs":[{}],"schedulers":[{}],"map_failure_prob":[{}],"backends":{{"analytic":false,"simulator":{SIM_REPS}}},"seed":{sweep_seed},"stream":true}}"#,
                    list(&|c| c.0.to_string()),
                    list(&|c| (c.1 * GB).to_string()),
                    list(&|c| c.2.to_string()),
                    list(&|c| format!("\"{}\"", c.3)),
                    list(&|c| c.4.to_string()),
                );
                Body {
                    id,
                    slot: s,
                    json,
                    points: sweep.len(),
                    solo_lookups: 0,
                }
            })
            .collect()
    }
}
