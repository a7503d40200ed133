//! Red-Black Successive Over-Relaxation.
//!
//! The matrix is divided into roughly equal bands of consecutive rows, one
//! band per processor; communication occurs across band boundaries. Each
//! iteration makes two half-sweeps (red points, then black points), each
//! followed by a barrier. Exactly like the paper's program, a processor
//! *stores every point of its rows each half-sweep* — including points
//! whose value did not change. On the bus machine the coherence protocol
//! moves that data regardless; TreadMarks' diffs drop the unchanged words,
//! which is the mechanism behind Figure 3/4's result.

use tmk_parmacs::{Alloc, InitWriter, SharedSlice, System, Workload};

use crate::band;

/// How the interior of the matrix is initialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorInit {
    /// The paper's default: fixed hot edges, zero interior. During early
    /// iterations only points near the edges change value.
    EdgesOnly,
    /// The paper's modified experiment: every point changes value at every
    /// iteration, equalizing data movement between TreadMarks and the bus
    /// machine.
    AllChanging,
}

/// The SOR workload.
#[derive(Debug, Clone)]
pub struct Sor {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Full iterations (each is two half-sweeps + two barriers).
    pub iters: usize,
    /// Interior initialization.
    pub init: SorInit,
    /// Cycles charged per point update (the FP work between accesses).
    pub cycles_per_point: u64,
}

impl Sor {
    /// The paper's larger configuration, scaled for simulation cost
    /// (2048×1024 = 16 MB: like the paper's large grid it exceeds the SGI's
    /// aggregate secondary cache capacity at 8 processors, saturating the
    /// bus, while the small configuration fits).
    pub fn large() -> Self {
        Sor {
            rows: 2048,
            cols: 1024,
            iters: 12,
            init: SorInit::EdgesOnly,
            cycles_per_point: 50,
        }
    }

    /// The smaller configuration (1024×1024 = 8 MB): like the paper's, it
    /// fits within the SGI's aggregate secondary cache when running on
    /// eight processors, so the bus stays unsaturated.
    pub fn small() -> Self {
        Sor {
            rows: 1024,
            cols: 1024,
            iters: 12,
            init: SorInit::EdgesOnly,
            cycles_per_point: 50,
        }
    }

    /// The GC-scaling configuration (2048×2048 = 32 MB): the largest grid
    /// we simulate, sized so consistency metadata (intervals, write
    /// notices, cached diffs) accumulates enough across barriers to make
    /// barrier-time garbage collection measurable.
    pub fn huge() -> Self {
        Sor {
            rows: 2048,
            cols: 2048,
            iters: 8,
            init: SorInit::EdgesOnly,
            cycles_per_point: 50,
        }
    }

    /// A tiny configuration for tests.
    pub fn tiny() -> Self {
        Sor {
            rows: 24,
            cols: 16,
            iters: 4,
            init: SorInit::EdgesOnly,
            cycles_per_point: 8,
        }
    }
}

/// Shared layout: the matrix, row-major.
#[derive(Debug, Clone, Copy)]
pub struct SorPlan {
    /// `rows * cols` elements.
    pub grid: SharedSlice<f64>,
}

impl Workload for Sor {
    type Plan = SorPlan;

    fn name(&self) -> &'static str {
        "sor"
    }

    fn params(&self) -> String {
        let init = match self.init {
            SorInit::EdgesOnly => "edges",
            SorInit::AllChanging => "allchanging",
        };
        format!(
            "rows={} cols={} iters={} init={init} cycles/pt={}",
            self.rows, self.cols, self.iters, self.cycles_per_point
        )
    }

    fn segment_bytes(&self) -> usize {
        (self.rows * self.cols * 8 + 8192).next_multiple_of(4096)
    }

    fn plan(&self, alloc: &mut Alloc) -> SorPlan {
        SorPlan {
            grid: alloc.slice_aligned(self.rows * self.cols, 4096),
        }
    }

    fn init(&self, plan: &SorPlan, w: &mut dyn InitWriter) {
        let mut row = vec![0.0f64; self.cols];
        // Hot top edge, cold sides/bottom.
        for (c, v) in row.iter_mut().enumerate() {
            *v = 100.0 + (c % 7) as f64;
        }
        plan.grid.init_range(w, 0, &row);
        for r in 1..self.rows {
            for (c, v) in row.iter_mut().enumerate() {
                *v = match self.init {
                    SorInit::EdgesOnly => {
                        if c == 0 || c == self.cols - 1 || r == self.rows - 1 {
                            10.0
                        } else {
                            0.0
                        }
                    }
                    // A spatially varying interior: no point is already at
                    // its neighbors' average, so every sweep changes it.
                    SorInit::AllChanging => ((r * self.cols + c) % 97) as f64,
                };
            }
            plan.grid.init_range(w, r * self.cols, &row);
        }
    }

    fn body(&self, sys: &dyn System, plan: &SorPlan) -> f64 {
        let me = sys.pid();
        let rows = band(self.rows - 2, sys.nprocs(), me);
        let rows = (rows.start + 1)..(rows.end + 1); // interior only
        let cols = self.cols;
        let mut above = vec![0.0f64; cols];
        let mut here = vec![0.0f64; cols];
        let mut below = vec![0.0f64; cols];

        for iter in 0..self.iters {
            for color in 0..2usize {
                for r in rows.clone() {
                    plan.grid.read_range(sys, (r - 1) * cols, &mut above);
                    plan.grid.read_range(sys, r * cols, &mut here);
                    plan.grid.read_range(sys, (r + 1) * cols, &mut below);
                    // Each updated point reads only points of the other
                    // color, so visiting this color alone does the same
                    // arithmetic on the same operands.
                    for c in color_columns(r, cols, color) {
                        here[c] = 0.25 * (above[c] + below[c] + here[c - 1] + here[c + 1]);
                    }
                    sys.compute(cols as u64 * self.cycles_per_point / 2);
                    // Store the whole row back, changed or not — the
                    // paper's program does exactly this.
                    plan.grid.write_range(sys, r * cols, &here);
                }
                sys.barrier(0);
            }
            if iter == 0 && me == 0 {
                // Exclude the initial data distribution from the rates.
                sys.mark();
            }
        }

        // Per-processor checksum of the owned band.
        let mut sum = 0.0;
        for r in rows {
            plan.grid.read_range(sys, r * cols, &mut here);
            sum += here.iter().sum::<f64>();
        }
        sum
    }
}

/// The interior columns `c` of row `r` with `(r + c) % 2 == color`.
fn color_columns(r: usize, cols: usize, color: usize) -> impl Iterator<Item = usize> {
    let first = 1 + (r + 1 + color) % 2;
    (first..cols - 1).step_by(2)
}

/// Sequential reference: the same computation on a plain array.
pub fn reference(cfg: &Sor) -> f64 {
    use tmk_parmacs::SequentialSystem;
    let mut sys = SequentialSystem::new(cfg.segment_bytes());
    let mut alloc = Alloc::new(cfg.segment_bytes());
    let plan = cfg.plan(&mut alloc);
    cfg.init(&plan, &mut sys);
    cfg.body(&sys, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_deterministic_and_finite() {
        let cfg = Sor::tiny();
        let a = reference(&cfg);
        let b = reference(&cfg);
        assert_eq!(a, b);
        assert!(a.is_finite());
        assert!(a > 0.0, "heat flows in from the hot edge");
    }

    #[test]
    fn more_iterations_move_more_heat() {
        let mut cfg = Sor::tiny();
        let short = reference(&cfg);
        cfg.iters = 12;
        let long = reference(&cfg);
        assert!(long > short, "interior keeps warming up");
    }

    #[test]
    fn all_changing_init_differs() {
        let mut cfg = Sor::tiny();
        cfg.init = SorInit::AllChanging;
        let v = reference(&cfg);
        assert!(v.is_finite());
        assert_ne!(v, reference(&Sor::tiny()));
    }

    #[test]
    fn color_columns_are_the_modulo_filter() {
        // `reference` runs the same `body`, so only this pins the stride.
        for cols in [2, 3, 8, 9, 16, 17] {
            for r in 1..=4 {
                for color in 0..2 {
                    let filtered: Vec<usize> =
                        (1..cols - 1).filter(|c| (r + c) % 2 == color).collect();
                    let strided: Vec<usize> = color_columns(r, cols, color).collect();
                    assert_eq!(strided, filtered, "r={r} cols={cols} color={color}");
                }
            }
        }
    }

    #[test]
    fn segment_fits_grid() {
        let cfg = Sor::large();
        assert!(cfg.segment_bytes() >= cfg.rows * cfg.cols * 8);
    }
}
