//! TSP instances: seeded random fully-connected graphs (the paper's
//! experiments use a 32-city fully connected graph; the original
//! distance data is unpublished, so instances here are generated from a
//! seed) plus an exact Held–Karp solver used as the correctness oracle
//! for small instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// "Infinite" distance marker (safe against additive overflow).
pub const INF: u32 = u32::MAX / 4;

/// A fully connected TSP instance (distance matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TspInstance {
    n: usize,
    dist: Vec<u32>,
}

impl TspInstance {
    /// Build from an explicit row-major distance matrix. An entry
    /// `>= INF` is a forbidden edge; diagonal entries are forced to
    /// [`INF`] (no self-loops).
    ///
    /// # Panics
    ///
    /// Panics unless the matrix is `n x n` with `n >= 3`.
    pub fn from_matrix(n: usize, mut dist: Vec<u32>) -> TspInstance {
        assert!(n >= 3, "TSP needs at least 3 cities");
        assert_eq!(dist.len(), n * n, "distance matrix must be n*n");
        for i in 0..n {
            dist[i * n + i] = INF;
        }
        TspInstance { n, dist }
    }

    /// A seeded random symmetric instance with distances in
    /// `[1, max_dist]`.
    pub fn random_symmetric(n: usize, max_dist: u32, seed: u64) -> TspInstance {
        assert!(max_dist >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = rng.gen_range(1..=max_dist);
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
        TspInstance::from_matrix(n, dist)
    }

    /// A seeded random *Euclidean* instance: cities on a grid, distances
    /// rounded to integers. Euclidean structure gives branch-and-bound
    /// more pruning to exploit than uniform random distances.
    pub fn random_euclidean(n: usize, grid: u32, seed: u64) -> TspInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..grid) as f64,
                    rng.gen_range(0..grid) as f64,
                )
            })
            .collect();
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    dist[i * n + j] = (dx * dx + dy * dy).sqrt().round() as u32 + 1;
                }
            }
        }
        TspInstance::from_matrix(n, dist)
    }

    /// Number of cities.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `i` to `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> u32 {
        self.dist[i * self.n + j]
    }

    /// The flat row-major matrix.
    pub fn matrix(&self) -> &[u32] {
        &self.dist
    }

    /// Cost of a tour given as a city permutation (closing edge
    /// included).
    ///
    /// # Panics
    ///
    /// Panics unless `tour` is a permutation of `0..n`.
    pub fn tour_cost(&self, tour: &[usize]) -> u32 {
        assert_eq!(tour.len(), self.n, "tour must visit every city once");
        let mut seen = vec![false; self.n];
        for &c in tour {
            assert!(!seen[c], "tour repeats city {c}");
            seen[c] = true;
        }
        let mut cost = 0u32;
        for w in tour.windows(2) {
            cost += self.dist(w[0], w[1]);
        }
        cost + self.dist(tour[self.n - 1], tour[0])
    }

    /// Exact minimum tour cost by Held–Karp dynamic programming, the
    /// correctness oracle. Pull form: `dp[S][j]`, the shortest path from
    /// city 0 through the set `S` that ends at `j ∈ S`, is the least
    /// `dp[S ∖ j][k] + d(k, j)` over every `k`: a branch-free fold of one
    /// contiguous row against a column of the matrix, transposed once.
    /// `O(2^n * n^2)` time.
    ///
    /// An entry `>= INF` is a forbidden edge, as in LMSK. Entries are
    /// clamped at [`INF`] and a row holds `INF` at non-members, so no sum
    /// wraps and no term needs a skip; with no tour left the answer is `INF`.
    ///
    /// # Panics
    ///
    /// Panics for `n > 20`: the table takes `4 (n-1) 2^(n-1)` bytes, 40 MB at 20.
    pub fn held_karp(&self) -> u32 {
        let n = self.n;
        assert!(n <= 20, "Held-Karp oracle limited to 20 cities");
        let m = n - 1; // bit and column j stand for city j + 1
        let d = |i: usize, j: usize| self.dist(i, j).min(INF);
        // into[j * m + k] = d(k + 1, j + 1): column j, read as a row.
        let into: Vec<u32> = (0..m * m).map(|x| d(x % m + 1, x / m + 1)).collect();
        let mut dp = vec![INF; m << m];
        for mask in 1..1usize << m {
            let (done, row) = dp.split_at_mut(mask * m);
            let mut bits = mask;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let prev = mask ^ (1 << j);
                row[j] = if prev == 0 {
                    d(0, j + 1)
                } else {
                    let from = &done[prev * m..][..m];
                    from.iter()
                        .zip(&into[j * m..][..m])
                        .fold(INF, |b, (&p, &c)| b.min(p + c))
                };
            }
        }
        let last = &dp[((1 << m) - 1) * m..];
        (0..m).fold(INF, |b, j| b.min(last[j] + d(j + 1, 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_symmetric_is_symmetric_with_inf_diagonal() {
        let inst = TspInstance::random_symmetric(8, 100, 42);
        for i in 0..8 {
            assert_eq!(inst.dist(i, i), INF);
            for j in 0..8 {
                assert_eq!(inst.dist(i, j), inst.dist(j, i));
                if i != j {
                    assert!(inst.dist(i, j) >= 1 && inst.dist(i, j) <= 100);
                }
            }
        }
    }

    #[test]
    fn same_seed_same_instance() {
        assert_eq!(
            TspInstance::random_symmetric(10, 50, 7),
            TspInstance::random_symmetric(10, 50, 7)
        );
        assert_ne!(
            TspInstance::random_symmetric(10, 50, 7),
            TspInstance::random_symmetric(10, 50, 8)
        );
    }

    #[test]
    fn tour_cost_sums_edges() {
        // Triangle: 0-1=2, 1-2=3, 2-0=4.
        let inst = TspInstance::from_matrix(3, vec![0, 2, 4, 2, 0, 3, 4, 3, 0]);
        assert_eq!(inst.tour_cost(&[0, 1, 2]), 9);
        assert_eq!(inst.tour_cost(&[2, 1, 0]), 9);
    }

    #[test]
    #[should_panic(expected = "repeats city")]
    fn tour_cost_rejects_non_permutation() {
        let inst = TspInstance::random_symmetric(4, 10, 1);
        let _ = inst.tour_cost(&[0, 1, 1, 2]);
    }

    /// Least tour cost over every order of cities `1..n` after city 0;
    /// a tour through an entry `>= INF` costs `INF`.
    fn brute_force(inst: &TspInstance) -> u32 {
        fn extend(inst: &TspInstance, at: usize, left: &mut Vec<usize>, cost: u32) -> u32 {
            let step = |to: usize| cost.saturating_add(inst.dist(at, to)).min(INF);
            if left.is_empty() {
                return step(0);
            }
            (0..left.len()).fold(INF, |best, i| {
                let next = left.swap_remove(i);
                let tour = extend(inst, next, left, step(next));
                left.push(next);
                let last = left.len() - 1;
                left.swap(i, last);
                best.min(tour)
            })
        }
        extend(inst, 0, &mut (1..inst.n()).collect(), 0)
    }

    /// A seeded `n`-city matrix with entries in `1..=100`: symmetric or
    /// not, and with about one entry in four forbidden (`INF` or
    /// `u32::MAX`) if `forbid`.
    fn drawn(n: usize, symmetric: bool, forbid: bool, seed: u64) -> TspInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dist = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                let d = match rng.gen_range(0..8) {
                    0 if forbid => INF,
                    1 if forbid => u32::MAX,
                    _ => rng.gen_range(1..=100),
                };
                dist[i * n + j] = if symmetric && j < i {
                    dist[j * n + i]
                } else {
                    d
                };
            }
        }
        TspInstance::from_matrix(n, dist)
    }

    #[test]
    fn held_karp_matches_brute_force() {
        let shapes = [(true, false), (false, false), (true, true), (false, true)];
        let mut toured = 0;
        for n in 3..=8 {
            for seed in 0..8 {
                for (symmetric, forbid) in shapes {
                    let inst = drawn(n, symmetric, forbid, seed);
                    let best = brute_force(&inst);
                    assert_eq!(
                        inst.held_karp(),
                        best,
                        "n {n} seed {seed} symmetric {symmetric} forbid {forbid}"
                    );
                    toured += usize::from(forbid && best < INF);
                }
            }
        }
        // With forbidden entries some draws keep a tour, some lose all.
        assert!(
            toured > 0 && toured < 6 * 8 * 2,
            "{toured} draws kept a tour"
        );
    }

    #[test]
    fn held_karp_treats_a_max_entry_as_forbidden() {
        // Every i -> i+1 edge is u32::MAX: added to a path's cost it
        // wraps, so the oracle must skip it as LMSK does.
        let base = TspInstance::random_symmetric(6, 50, 3);
        let mut dist = base.matrix().to_vec();
        for i in 0..6 {
            dist[i * 6 + (i + 1) % 6] = u32::MAX;
        }
        let inst = TspInstance::from_matrix(6, dist);
        let (lmsk, _) = crate::solve_sequential(&inst);
        assert_eq!(inst.held_karp(), lmsk);
        assert_eq!(lmsk, brute_force(&inst));
        assert!(lmsk < INF);
    }

    #[test]
    fn no_tour_is_inf_for_held_karp_and_lmsk() {
        // In the first, city 0 can leave for nowhere. In the second,
        // every row and column has a finite entry, but the only cycles
        // are 0-1 and 2-3.
        let leave_none = {
            let mut dist = TspInstance::random_symmetric(5, 50, 1).matrix().to_vec();
            dist[..5].fill(INF);
            TspInstance::from_matrix(5, dist)
        };
        let two_pairs = {
            let mut dist = vec![INF; 16];
            for (at, d) in [(1, 7), (4, 7), (11, 5), (14, 5)] {
                dist[at] = d;
            }
            (dist[3], dist[8]) = (u32::MAX, u32::MAX);
            TspInstance::from_matrix(4, dist)
        };
        for inst in [leave_none, two_pairs] {
            assert_eq!(inst.held_karp(), INF);
            assert_eq!(crate::solve_sequential(&inst).0, INF);
            assert_eq!(brute_force(&inst), INF);
        }
    }

    #[test]
    fn held_karp_on_euclidean() {
        let inst = TspInstance::random_euclidean(9, 1000, 5);
        let hk = inst.held_karp();
        assert!(hk > 0 && hk < INF);
        // Any concrete tour is an upper bound.
        let ident: Vec<usize> = (0..9).collect();
        assert!(hk <= inst.tour_cost(&ident));
    }
}
