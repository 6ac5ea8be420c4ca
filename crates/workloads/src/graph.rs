//! Compressed Sparse Row graphs and generators.
//!
//! The paper evaluates on real-world graphs (Table IV). We substitute
//! deterministic synthetic generators per *domain*: the performance
//! phenomena Phloem exercises depend on degree distribution, diameter,
//! and locality — which the generators control — not on the particular
//! instances. All generators are seeded and reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected graph in CSR form (both edge directions stored).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// Number of vertices.
    pub num_vertices: usize,
    /// CSR offsets, length `num_vertices + 1`.
    pub offsets: Vec<i64>,
    /// Flattened neighbor lists.
    pub edges: Vec<i64>,
}

impl Graph {
    /// Builds a CSR graph from an adjacency list, deduplicating edges
    /// and removing self-loops.
    pub fn from_adjacency(mut adj: Vec<Vec<u32>>) -> Graph {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for (u, nbrs) in adj.iter_mut().enumerate() {
            nbrs.sort_unstable();
            nbrs.dedup();
            for &v in nbrs.iter() {
                if v as usize != u {
                    edges.push(v as i64);
                }
            }
            offsets.push(edges.len() as i64);
        }
        Graph {
            num_vertices: n,
            offsets,
            edges,
        }
    }

    /// Number of directed edges stored (2x undirected edge count).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Average (directed) degree.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges() as f64 / self.num_vertices.max(1) as f64
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbors of a vertex.
    pub fn neighbors(&self, v: usize) -> &[i64] {
        let s = self.offsets[v] as usize;
        let e = self.offsets[v + 1] as usize;
        &self.edges[s..e]
    }

    /// The maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Checks CSR invariants: monotone offsets, in-range neighbor ids,
    /// no self-loops.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.num_vertices + 1 {
            return Err("offsets length".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.edges.len() as i64 {
            return Err("offset endpoints".into());
        }
        for w in self.offsets.windows(2) {
            if w[1] < w[0] {
                return Err("offsets not monotone".into());
            }
        }
        for (u, w) in self.offsets.windows(2).enumerate() {
            for &v in &self.edges[w[0] as usize..w[1] as usize] {
                if v < 0 || v as usize >= self.num_vertices {
                    return Err(format!("edge target {v} out of range"));
                }
                if v as usize == u {
                    return Err(format!("self loop at {u}"));
                }
            }
        }
        Ok(())
    }

    /// Reference BFS (host-side oracle): distances from `root`,
    /// `i64::MAX` for unreachable vertices.
    pub fn bfs_distances(&self, root: usize) -> Vec<i64> {
        let mut dist = vec![i64::MAX; self.num_vertices];
        let mut fringe = vec![root as i64];
        dist[root] = 0;
        let mut d = 0;
        while !fringe.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &u in &fringe {
                for &v in self.neighbors(u as usize) {
                    if dist[v as usize] == i64::MAX {
                        dist[v as usize] = d;
                        next.push(v);
                    }
                }
            }
            fringe = next;
        }
        dist
    }
}

/// Relabels vertices with a seeded random permutation. Real-world graph
/// files do not enumerate vertices in memory-layout order, so neighbor
/// ids are scattered; without this, grid generators would make indirect
/// accesses artificially cache-friendly.
fn permute_labels(adj: Vec<Vec<u32>>, seed: u64) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Block-local Fisher-Yates: real graph files preserve coarse
    // locality (e.g. geographic ordering in road networks) but not
    // line-level sequentiality. Shuffling within 4 Ki-vertex blocks
    // breaks cache-line and prefetcher friendliness while keeping the
    // BFS wavefront's working set compact, as in the real inputs.
    const BLOCK: usize = 4096;
    let mut start = 0;
    while start < n {
        let end = (start + BLOCK).min(n);
        for i in (start + 1..end).rev() {
            let j = rng.gen_range(start..=i);
            perm.swap(i, j);
        }
        start = end;
    }
    let mut out = vec![Vec::new(); n];
    for (u, nbrs) in adj.into_iter().enumerate() {
        let nu = perm[u] as usize;
        out[nu] = nbrs.into_iter().map(|v| perm[v as usize]).collect();
    }
    out
}

fn add_undirected(adj: &mut [Vec<u32>], u: usize, v: usize) {
    if u == v {
        return;
    }
    adj[u].push(v as u32);
    adj[v].push(u as u32);
}

/// Road-network-like graph: a jittered 2D grid (4-neighborhood with
/// random deletions and occasional diagonals). Bounded degree, huge
/// diameter — matches `USA-road-d` style inputs (avg deg ~2.4-2.8).
pub fn road_network(side: usize, seed: u64) -> Graph {
    let n = side * side;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    for y in 0..side {
        for x in 0..side {
            let u = y * side + x;
            if x + 1 < side && rng.gen_bool(0.75) {
                add_undirected(&mut adj, u, u + 1);
            }
            if y + 1 < side && rng.gen_bool(0.75) {
                add_undirected(&mut adj, u, u + side);
            }
            if x + 1 < side && y + 1 < side && rng.gen_bool(0.05) {
                add_undirected(&mut adj, u, u + side + 1);
            }
        }
    }
    // Stitch a spanning backbone so BFS reaches everything.
    for u in 1..n {
        if adj[u].is_empty() {
            add_undirected(&mut adj, u, u - 1);
        }
    }
    Graph::from_adjacency(permute_labels(adj, seed))
}

/// Power-law graph via preferential attachment (Barabasi-Albert),
/// matching internet-topology style inputs (as-Skitter: avg deg ~13,
/// heavy-tailed degrees).
pub fn power_law(n: usize, edges_per_vertex: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    // Endpoint pool implements preferential attachment.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * n * edges_per_vertex);
    let m0 = (edges_per_vertex + 1).min(n);
    for u in 0..m0 {
        for v in 0..u {
            add_undirected(&mut adj, u, v);
            pool.push(u as u32);
            pool.push(v as u32);
        }
    }
    for u in m0..n {
        for _ in 0..edges_per_vertex {
            let v = if pool.is_empty() || rng.gen_bool(0.1) {
                rng.gen_range(0..u) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            add_undirected(&mut adj, u, v as usize);
            pool.push(u as u32);
            pool.push(v);
        }
    }
    Graph::from_adjacency(adj)
}

/// Mesh-like graph (dynamic-simulation traces, e.g. `hugetrace`):
/// near-planar with regular low degree.
pub fn mesh(side: usize, seed: u64) -> Graph {
    let n = side * side;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    for y in 0..side {
        for x in 0..side {
            let u = y * side + x;
            if x + 1 < side {
                add_undirected(&mut adj, u, u + 1);
            }
            if y + 1 < side {
                add_undirected(&mut adj, u, u + side);
            }
            // Triangulate some cells.
            if x + 1 < side && y + 1 < side && rng.gen_bool(0.5) {
                add_undirected(&mut adj, u, u + side + 1);
            }
        }
    }
    Graph::from_adjacency(permute_labels(adj, seed))
}

/// Collaboration-network-like graph: small dense communities (cliques)
/// plus sparse random inter-community links (coAuthorsDBLP: avg ~6.4).
pub fn collaboration(communities: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sizes = Vec::with_capacity(communities);
    let mut n = 0usize;
    for _ in 0..communities {
        let s = rng.gen_range(2usize..=9);
        sizes.push(s);
        n += s;
    }
    let mut adj = vec![Vec::new(); n];
    let mut start = 0usize;
    let mut firsts = Vec::with_capacity(communities);
    for &s in &sizes {
        firsts.push(start);
        for a in start..start + s {
            for b in start..a {
                add_undirected(&mut adj, a, b);
            }
        }
        start += s;
    }
    // Inter-community bridges.
    for _ in 0..communities * 2 {
        let a = firsts[rng.gen_range(0..communities)];
        let b = firsts[rng.gen_range(0..communities)];
        add_undirected(&mut adj, a, b);
    }
    // Connect sequential communities so the graph is connected.
    for w in firsts.windows(2) {
        add_undirected(&mut adj, w[0], w[1]);
    }
    Graph::from_adjacency(permute_labels(adj, seed))
}

/// Uniform random graph (circuit-simulation style irregularity,
/// e.g. `Freescale1`): each vertex gets `avg_degree/2` random endpoints.
pub fn uniform_random(n: usize, avg_degree: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = vec![Vec::new(); n];
    let half = (avg_degree / 2).max(1);
    for u in 0..n {
        for _ in 0..half {
            let v = rng.gen_range(0..n);
            add_undirected(&mut adj, u, v);
        }
    }
    // Ring backbone for connectivity.
    for u in 1..n {
        if rng.gen_bool(0.05) || adj[u].is_empty() {
            add_undirected(&mut adj, u, u - 1);
        }
    }
    Graph::from_adjacency(adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_valid_csr() {
        for g in [
            road_network(40, 1),
            power_law(2000, 6, 2),
            mesh(30, 3),
            collaboration(300, 4),
            uniform_random(1500, 6, 5),
        ] {
            g.validate().expect("valid CSR");
            assert!(g.num_edges() > g.num_vertices / 2);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(road_network(20, 7), road_network(20, 7));
        assert_ne!(power_law(500, 4, 1), power_law(500, 4, 2));
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let g = power_law(4000, 6, 11);
        let avg = g.avg_degree();
        let max = g.max_degree() as f64;
        assert!(
            max > 8.0 * avg,
            "power-law max degree {max} should dwarf avg {avg}"
        );
    }

    #[test]
    fn road_network_has_bounded_degree_and_large_diameter() {
        let g = road_network(50, 13);
        assert!(g.max_degree() <= 8);
        let d = g.bfs_distances(0);
        let far = d.iter().filter(|&&x| x != i64::MAX).max().unwrap();
        assert!(*far > 40, "grid diameter should be large, got {far}");
    }

    #[test]
    fn bfs_oracle_reaches_connected_component() {
        let g = mesh(20, 1);
        let d = g.bfs_distances(0);
        let unreachable = d.iter().filter(|&&x| x == i64::MAX).count();
        assert_eq!(unreachable, 0, "mesh is connected");
        assert_eq!(d[0], 0);
    }
}
