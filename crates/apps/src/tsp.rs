//! Branch-and-bound Traveling Salesman.
//!
//! The program keeps a shared, global queue of partial tours guarded by a
//! lock. Each process takes a partial tour, extends it, and returns the
//! promising extensions to the queue; tours deeper than a threshold are
//! solved to completion locally. A shared *best tour length* prunes the
//! search. As in the paper, updates of the bound are synchronized (a lock)
//! but reads during pruning are **not** — on lazy release consistency a
//! processor may prune against a stale bound and perform redundant work
//! (Section 2.4.3), which the eager-release ablation removes.
//!
//! Distances are integers (deterministic across platforms); work is charged
//! per explored search-tree node.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tmk_parmacs::{Alloc, InitExt, InitWriter, SharedSlice, System, Workload};

/// Lock ids.
const QUEUE_LOCK: usize = 0;
/// The paper's eager-release ablation targets this lock.
pub const BOUND_LOCK: usize = 1;

/// The largest instance: the search keeps the unvisited set in a `u32` mask.
const MAX_CITIES: usize = 32;

/// The TSP workload.
#[derive(Debug, Clone)]
pub struct Tsp {
    /// Number of cities (the paper uses 18 and 19; scaled inputs work too).
    pub cities: usize,
    /// RNG seed for city coordinates.
    pub seed: u64,
    /// Queue entries hold tours up to this many cities; deeper tours are
    /// solved locally without touching shared memory.
    pub queue_depth: usize,
    /// Cycles charged per search-tree node explored.
    pub cycles_per_node: u64,
}

impl Tsp {
    /// A TSP instance with `cities` cities (deterministic coordinates).
    ///
    /// # Panics
    ///
    /// Panics above 32 cities (the search keeps the unvisited set in a `u32`).
    pub fn new(cities: usize) -> Self {
        assert!(
            cities <= MAX_CITIES,
            "at most {MAX_CITIES} cities, got {cities}"
        );
        Tsp {
            cities,
            seed: 0x5eed_7590 + cities as u64,
            queue_depth: usize::min(3, cities.saturating_sub(2)).max(2),
            cycles_per_node: 100,
        }
    }

    /// The integer distance matrix for this instance.
    pub fn distances(&self) -> Vec<Vec<u32>> {
        let n = self.cities;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let pts: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(0..1000), rng.gen_range(0..1000)))
            .collect();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let dx = (pts[i].0 - pts[j].0) as f64;
                        let dy = (pts[i].1 - pts[j].1) as f64;
                        (dx * dx + dy * dy).sqrt().round() as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// A greedy nearest-neighbor tour, improved by 2-opt: the initial
    /// bound. A tight starting bound keeps the branch-and-bound tree small
    /// and (near-)independent of exploration order, as in the paper's
    /// program, where the parallel searches occasionally even go
    /// super-linear rather than ballooning.
    pub fn greedy_bound(&self) -> u32 {
        let d = self.distances();
        let n = self.cities;
        let mut visited = vec![false; n];
        visited[0] = true;
        let mut at = 0;
        let mut tour = vec![0usize];
        for _ in 1..n {
            let next = (0..n)
                .filter(|&j| !visited[j])
                .min_by_key(|&j| d[at][j])
                .expect("unvisited city remains");
            visited[next] = true;
            tour.push(next);
            at = next;
        }
        // 2-opt: reverse segments while any swap shortens the tour.
        let len = |t: &[usize]| -> u32 {
            t.windows(2).map(|w| d[w[0]][w[1]]).sum::<u32>() + d[*t.last().expect("tour")][t[0]]
        };
        let mut improved = true;
        while improved {
            improved = false;
            for i in 1..n - 1 {
                for j in i + 1..n {
                    let (a, b) = (tour[i - 1], tour[i]);
                    let (c, e) = (tour[j], tour[(j + 1) % n]);
                    if d[a][c] + d[b][e] < d[a][b] + d[c][e] {
                        tour[i..=j].reverse();
                        improved = true;
                    }
                }
            }
        }
        len(&tour)
    }
}

/// Queue entry layout: `[cost, len, city0, city1, ...]` as u32 words.
#[derive(Debug, Clone, Copy)]
pub struct TspPlan {
    /// Shared best tour length.
    pub bound: SharedSlice<u32>,
    /// Number of tours in the queue.
    pub queue_len: SharedSlice<u32>,
    /// Count of workers currently expanding a tour (termination detection).
    pub active: SharedSlice<u32>,
    /// The tour queue: `capacity` entries of `entry_words` u32s.
    pub queue: SharedSlice<u32>,
    /// Read-only distance matrix, row-major.
    pub dist: SharedSlice<u32>,
    /// Words per queue entry.
    pub entry_words: usize,
    /// Maximum entries.
    pub capacity: usize,
}

impl Tsp {
    fn entry_words(&self) -> usize {
        2 + self.cities
    }

    fn capacity(&self) -> usize {
        // The queue is a LIFO stack expanded depth-first, so it holds at
        // most ~branching x depth entries per concurrent worker; 8192 is
        // comfortable for every input the benches use (asserted on push).
        8192
    }
}

impl Workload for Tsp {
    type Plan = TspPlan;

    fn name(&self) -> &'static str {
        "tsp"
    }

    fn params(&self) -> String {
        format!(
            "cities={} seed={:#x} queue_depth={} cycles/node={}",
            self.cities, self.seed, self.queue_depth, self.cycles_per_node
        )
    }

    fn segment_bytes(&self) -> usize {
        let q = self.capacity() * self.entry_words() * 4;
        let d = self.cities * self.cities * 4;
        (q + d + 16384).next_multiple_of(4096)
    }

    fn plan(&self, alloc: &mut Alloc) -> TspPlan {
        TspPlan {
            bound: alloc.slice_aligned(1, 4096),
            queue_len: alloc.slice(1),
            active: alloc.slice(1),
            queue: alloc.slice_aligned(self.capacity() * self.entry_words(), 4096),
            dist: alloc.slice_aligned(self.cities * self.cities, 4096),
            entry_words: self.entry_words(),
            capacity: self.capacity(),
        }
    }

    fn init(&self, plan: &TspPlan, w: &mut dyn InitWriter) {
        let d = self.distances();
        for (i, row) in d.iter().enumerate() {
            plan.dist.init_range(w, i * self.cities, row);
        }
        w.init(plan.bound.addr(), self.greedy_bound());
        // Seed the queue with the root tour (city 0).
        let mut entry = vec![0u32; self.entry_words()];
        entry[0] = 0; // cost
        entry[1] = 1; // length
        entry[2] = 0; // starts at city 0
        plan.queue.init_range(w, 0, &entry);
        w.init(plan.queue_len.addr(), 1u32);
        w.init(plan.active.addr(), 0u32);
    }

    fn body(&self, sys: &dyn System, plan: &TspPlan) -> f64 {
        let n = self.cities;
        // Private copy of the read-only distance matrix (one-time shared
        // reads, then local).
        let mut dist = vec![0u32; n * n];
        plan.dist.read_range(sys, 0, &mut dist);
        let mut search = Search::new(n, dist);

        let mut entry = vec![0u32; plan.entry_words];
        loop {
            // Pop a partial tour.
            sys.lock(QUEUE_LOCK);
            let len = plan.queue_len.get(sys, 0);
            let popped = if len > 0 {
                let idx = (len - 1) as usize;
                plan.queue
                    .read_range(sys, idx * plan.entry_words, &mut entry);
                plan.queue_len.set(sys, 0, len - 1);
                let a = plan.active.get(sys, 0);
                plan.active.set(sys, 0, a + 1);
                true
            } else {
                false
            };
            let active = plan.active.get(sys, 0);
            sys.unlock(QUEUE_LOCK);

            if !popped {
                if active == 0 {
                    break; // queue empty and nobody can refill it
                }
                sys.compute(20_000); // back off before polling again
                continue;
            }

            self.expand(sys, plan, &entry, &mut search);

            sys.lock(QUEUE_LOCK);
            let a = plan.active.get(sys, 0);
            plan.active.set(sys, 0, a - 1);
            sys.unlock(QUEUE_LOCK);
        }
        sys.barrier(0);
        f64::from(plan.bound.get(sys, 0))
    }
}

/// One process's private search state: the instance's constants plus the
/// buffers [`Tsp::expand`] reuses from call to call.
struct Search {
    n: usize,
    /// Distance matrix, row-major.
    dist: Vec<u32>,
    /// Cheapest outgoing edge per city (for the admissible lower bound:
    /// every remaining city must be left exactly once).
    min_out: Vec<u32>,
    /// Surviving children of the tour being expanded: `(cost, city)`.
    children: Vec<(u32, u32)>,
    /// The queue entry being built for one child.
    child: Vec<u32>,
}

impl Search {
    fn new(n: usize, dist: Vec<u32>) -> Search {
        assert!(n <= MAX_CITIES, "at most {MAX_CITIES} cities, got {n}");
        let min_out = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist[i * n + j])
                    .min()
                    .unwrap_or(0)
            })
            .collect();
        Search {
            n,
            dist,
            min_out,
            children: Vec::new(),
            child: Vec::new(),
        }
    }

    /// The unvisited mask and its `min_out` sum for a tour through `path`.
    fn remaining(&self, path: &[u32]) -> (u32, u32) {
        let mut unvisited = ((1u64 << self.n) - 1) as u32;
        for &c in path {
            unvisited &= !(1 << c);
        }
        let rem = set_bits(unvisited).map(|u| self.min_out[u]).sum();
        (unvisited, rem)
    }

    /// Depth-first branch and bound below a tour that ends in `at` after
    /// `cost`, with the cities in `unvisited` still to go. `rem` is the sum
    /// of `min_out` over `unvisited`, which makes the admissible completion
    /// bound of every child `next` — its cost plus the cheapest way to leave
    /// it and every city unvisited after it — the same `cost + dist[at][next]
    /// + rem`: one add per edge instead of a scan of all cities.
    fn dfs(&self, at: usize, unvisited: u32, cost: u32, rem: u32, best: &mut u32, nodes: &mut u64) {
        *nodes += 1;
        let row = &self.dist[at * self.n..(at + 1) * self.n];
        if unvisited == 0 {
            *best = (*best).min(cost + row[0]);
            return;
        }
        for next in set_bits(unvisited) {
            let c2 = cost + row[next];
            if c2 + rem >= *best {
                continue; // prune
            }
            let rest = unvisited & !(1 << next);
            self.dfs(next, rest, c2, rem - self.min_out[next], best, nodes);
        }
    }
}

/// The set bits of `mask`, ascending.
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

impl Tsp {
    /// Expands one partial tour: pushes shallow children back to the queue,
    /// solves deep ones locally, updating the shared bound.
    fn expand(&self, sys: &dyn System, plan: &TspPlan, entry: &[u32], s: &mut Search) {
        let n = self.cities;
        let cost = entry[0];
        let len = entry[1] as usize;
        let path = &entry[2..2 + len];
        let at = path[len - 1] as usize;
        let (unvisited, rem) = s.remaining(path);

        // Unsynchronized bound read: may be stale under LRC.
        let bound = plan.bound.get(sys, 0);

        if len < self.queue_depth {
            s.children.clear();
            for next in set_bits(unvisited) {
                let c2 = cost + s.dist[at * n + next];
                if c2 + rem < bound {
                    s.children.push((c2, next as u32));
                }
            }
            sys.compute(n as u64 * self.cycles_per_node);
            // Push the most promising child last (the queue is a stack):
            // workers then explore cheapest-first, tightening the bound as
            // quickly as the sequential depth-first order does.
            s.children.sort_by_key(|&(c2, _)| std::cmp::Reverse(c2));
            if !s.children.is_empty() {
                sys.lock(QUEUE_LOCK);
                let mut qlen = plan.queue_len.get(sys, 0) as usize;
                for &(c2, next) in &s.children {
                    assert!(qlen < plan.capacity, "tour queue overflow");
                    s.child.clear();
                    s.child.extend_from_slice(&[c2, (len + 1) as u32]);
                    s.child.extend_from_slice(path);
                    s.child.push(next);
                    s.child.resize(plan.entry_words, 0);
                    plan.queue
                        .write_range(sys, qlen * plan.entry_words, &s.child);
                    qlen += 1;
                }
                plan.queue_len.set(sys, 0, qlen as u32);
                sys.unlock(QUEUE_LOCK);
            }
        } else {
            // Solve the rest locally with depth-first branch and bound.
            let mut best = bound;
            let mut nodes = 0u64;
            s.dfs(at, unvisited, cost, rem, &mut best, &mut nodes);
            sys.compute(nodes * self.cycles_per_node);
            if best < bound {
                // Synchronized update (check again under the lock).
                sys.lock(BOUND_LOCK);
                let cur = plan.bound.get(sys, 0);
                if best < cur {
                    plan.bound.set(sys, 0, best);
                }
                sys.unlock(BOUND_LOCK);
            }
        }
    }

    /// Sequential optimum (exhaustive branch-and-bound), for validation.
    pub fn optimal(&self) -> u32 {
        let dist = self.distances().into_iter().flatten().collect();
        let s = Search::new(self.cities, dist);
        let (unvisited, rem) = s.remaining(&[0]);
        let mut best = self.greedy_bound();
        s.dfs(0, unvisited, 0, rem, &mut best, &mut 0);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tmk_parmacs::SequentialSystem;

    /// The completion bound [`Search::dfs`] replaced: a scan of every city
    /// per candidate edge. Kept, with [`reference_dfs`], as the model the
    /// incremental kernel must match node for node.
    fn lower_bound(cost: u32, at: usize, visited: &[bool], min_out: &[u32]) -> u32 {
        let mut lb = cost + min_out[at];
        for (u, &v) in visited.iter().enumerate() {
            if !v {
                lb += min_out[u];
            }
        }
        lb
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_dfs(
        path: &mut Vec<usize>,
        visited: &mut [bool],
        cost: u32,
        best: &mut u32,
        nodes: &mut u64,
        n: usize,
        d: &dyn Fn(usize, usize) -> u32,
        min_out: &[u32],
    ) {
        *nodes += 1;
        let at = *path.last().expect("path is never empty");
        if path.len() == n {
            let total = cost + d(at, 0);
            if total < *best {
                *best = total;
            }
            return;
        }
        for next in 1..n {
            if visited[next] {
                continue;
            }
            let c2 = cost + d(at, next);
            visited[next] = true;
            let lb = lower_bound(c2, next, visited, min_out);
            if lb >= *best {
                visited[next] = false;
                continue;
            }
            path.push(next);
            reference_dfs(path, visited, c2, best, nodes, n, d, min_out);
            path.pop();
            visited[next] = false;
        }
    }

    fn search(cfg: &Tsp) -> Search {
        Search::new(cfg.cities, cfg.distances().into_iter().flatten().collect())
    }

    /// The rewrite rests on this: with `next` just marked visited, the old
    /// bound `c2 + min_out[next] + Σ min_out over the still-unvisited` is
    /// `c2` plus the sum over everything unvisited *before* the step — a
    /// constant of the parent.
    #[test]
    fn bound_of_a_child_is_its_cost_plus_the_parents_remaining_sum() {
        let s = search(&Tsp::new(9));
        for path in [
            vec![0u32],
            vec![0, 4],
            vec![0, 7, 2, 5],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
        ] {
            let (unvisited, rem) = s.remaining(&path);
            let mut visited: Vec<bool> = (0..s.n).map(|c| unvisited & (1 << c) == 0).collect();
            for next in set_bits(unvisited) {
                visited[next] = true;
                for c2 in [0, 1, 977] {
                    assert_eq!(lower_bound(c2, next, &visited, &s.min_out), c2 + rem);
                }
                visited[next] = false;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// From any partial tour and any starting bound, the mask kernel and
        /// the reference explore the same number of nodes to the same best.
        #[test]
        fn mask_kernel_matches_the_reference_kernel(
            cities in 5usize..14,
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u32>(), 0..4),
            slack in 0u32..1000,
        ) {
            let cfg = Tsp { seed, ..Tsp::new(cities) };
            let s = search(&cfg);
            let n = cities;
            // A valid partial tour of 1..=4 cities starting at city 0.
            let mut path = vec![0usize];
            for p in picks {
                let free: Vec<usize> = (1..n).filter(|c| !path.contains(c)).collect();
                path.push(free[p as usize % free.len()]);
            }
            let cost: u32 = path.windows(2).map(|w| s.dist[w[0] * n + w[1]]).sum();
            // A starting bound anywhere in [optimal, 2 * greedy].
            let (lo, hi) = (cfg.optimal(), 2 * cfg.greedy_bound());
            let start = lo + (hi - lo) * slack / 999;

            let (mut best, mut nodes) = (start, 0u64);
            let path32: Vec<u32> = path.iter().map(|&c| c as u32).collect();
            let (unvisited, rem) = s.remaining(&path32);
            s.dfs(*path.last().unwrap(), unvisited, cost, rem, &mut best, &mut nodes);

            let (mut ref_best, mut ref_nodes) = (start, 0u64);
            let mut visited: Vec<bool> = (0..n).map(|c| path.contains(&c)).collect();
            let d = |a: usize, b: usize| s.dist[a * n + b];
            reference_dfs(
                &mut path, &mut visited, cost, &mut ref_best, &mut ref_nodes, n, &d, &s.min_out,
            );
            prop_assert_eq!((best, nodes), (ref_best, ref_nodes));
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 cities")]
    fn more_cities_than_mask_bits_are_refused() {
        Tsp::new(33);
    }

    fn solve_seq(cfg: &Tsp) -> f64 {
        let mut sys = SequentialSystem::new(cfg.segment_bytes());
        let mut alloc = Alloc::new(cfg.segment_bytes());
        let plan = cfg.plan(&mut alloc);
        cfg.init(&plan, &mut sys);
        cfg.body(&sys, &plan)
    }

    #[test]
    fn workload_finds_the_optimum() {
        for cities in [8, 10, 11, 12, 13] {
            let cfg = Tsp::new(cities);
            assert_eq!(solve_seq(&cfg), f64::from(cfg.optimal()), "{cities} cities");
        }
    }

    #[test]
    fn greedy_bound_is_a_valid_tour() {
        let cfg = Tsp::new(10);
        assert!(cfg.greedy_bound() >= cfg.optimal());
    }

    #[test]
    fn distances_symmetric_with_zero_diagonal() {
        let cfg = Tsp::new(12);
        let d = cfg.distances();
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, d[j][i]);
            }
        }
    }

    #[test]
    fn deterministic_instances() {
        assert_eq!(Tsp::new(13).distances(), Tsp::new(13).distances());
        assert_ne!(Tsp::new(13).distances(), Tsp::new(14).distances());
    }
}
