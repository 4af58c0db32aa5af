//! The ARIA bounds model (Verma, Cherkasova, Campbell — ICAC'11), the
//! related-work baseline of §2.1.
//!
//! Applies the Makespan Theorem for greedy task assignment: `n` tasks of
//! mean duration `μ` and max duration `λ` on `k` slots complete within
//! `[n·μ/k, (n−1)·μ/k + λ]`. ARIA composes these bounds over the map,
//! (typical) shuffle, and reduce stages and estimates the completion time
//! as `T_avg = (T_up + T_low)/2`, reported accurate within ~15% on
//! Hadoop 1.x. Its key limitation — the reason the paper builds a new
//! model — is the fixed slot counts `S_M`, `S_R`.

/// Stage statistics for the ARIA profile.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Mean task duration in the stage.
    pub avg: f64,
    /// Maximum task duration in the stage.
    pub max: f64,
}

/// An ARIA job profile.
#[derive(Debug, Clone)]
pub struct AriaProfile {
    /// Number of map tasks.
    pub num_maps: u32,
    /// Number of reduce tasks.
    pub num_reduces: u32,
    /// Map task durations.
    pub map: StageStats,
    /// First-wave shuffle durations (overlapped with maps).
    pub shuffle_first: StageStats,
    /// Typical (non-overlapped) shuffle durations.
    pub shuffle_typical: StageStats,
    /// Reduce (merge + reduce + write) durations.
    pub reduce: StageStats,
}

/// Completion-time bounds.
#[derive(Debug, Clone, Copy)]
pub struct AriaBounds {
    /// Lower bound `T_J^low`.
    pub low: f64,
    /// Upper bound `T_J^up`.
    pub up: f64,
}

impl AriaBounds {
    /// The estimate ARIA uses: `(low + up)/2`.
    pub fn avg(&self) -> f64 {
        0.5 * (self.low + self.up)
    }
}

/// Makespan Theorem bounds for one stage of `n` tasks on `k` slots.
fn stage_bounds(n: u32, k: u32, s: StageStats) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let k = k.max(1) as f64;
    let n = n as f64;
    (n * s.avg / k, (n - 1.0) * s.avg / k + s.max)
}

/// ARIA's completion-time bounds for a job on `map_slots`/`reduce_slots`.
pub fn aria_bounds(p: &AriaProfile, map_slots: u32, reduce_slots: u32) -> AriaBounds {
    let (map_low, map_up) = stage_bounds(p.num_maps, map_slots, p.map);
    let (sh_low, sh_up) = stage_bounds(
        p.num_reduces
            .saturating_sub(reduce_slots.min(p.num_reduces)),
        reduce_slots,
        p.shuffle_typical,
    );
    let (red_low, red_up) = stage_bounds(p.num_reduces, reduce_slots, p.reduce);
    // The first shuffle wave overlaps the map stage; ARIA adds its average
    // (lower bound) / max (upper bound) once.
    let first_sh_low = if p.num_reduces > 0 {
        p.shuffle_first.avg
    } else {
        0.0
    };
    let first_sh_up = if p.num_reduces > 0 {
        p.shuffle_first.max
    } else {
        0.0
    };
    AriaBounds {
        low: map_low + first_sh_low + sh_low + red_low,
        up: map_up + first_sh_up + sh_up + red_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AriaProfile {
        AriaProfile {
            num_maps: 16,
            num_reduces: 4,
            map: StageStats {
                avg: 40.0,
                max: 50.0,
            },
            shuffle_first: StageStats { avg: 5.0, max: 8.0 },
            shuffle_typical: StageStats { avg: 5.0, max: 8.0 },
            reduce: StageStats {
                avg: 20.0,
                max: 25.0,
            },
        }
    }

    #[test]
    fn bounds_are_ordered() {
        let b = aria_bounds(&profile(), 8, 4);
        assert!(b.low > 0.0);
        assert!(b.up >= b.low);
        assert!(b.avg() >= b.low && b.avg() <= b.up);
    }

    #[test]
    fn map_stage_bounds_match_makespan_theorem() {
        let p = AriaProfile {
            num_reduces: 0,
            ..profile()
        };
        let b = aria_bounds(&p, 8, 1);
        // 16 maps on 8 slots: low = 16·40/8 = 80; up = 15·40/8 + 50 = 125.
        assert!((b.low - 80.0).abs() < 1e-9);
        assert!((b.up - 125.0).abs() < 1e-9);
    }

    #[test]
    fn more_slots_never_hurts() {
        let p = profile();
        let mut prev = f64::INFINITY;
        for k in 1..=16 {
            let avg = aria_bounds(&p, k, k).avg();
            assert!(avg <= prev + 1e-9, "k={k}: {avg} > {prev}");
            prev = avg;
        }
    }
}
