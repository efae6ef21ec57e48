//! Named graph workloads shared by the experiments.

use apsp_graph::generators::{self, WeightKind};
use apsp_graph::Csr;

/// A workload: a graph plus the metadata the reports print.
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The graph.
    pub graph: Csr,
    /// `Some((rows, cols))` when the exact geometric dissection applies.
    pub grid_shape: Option<(usize, usize)>,
}

/// `side × side` unit-weight mesh — the separator-friendly reference case.
pub fn mesh(side: usize) -> Workload {
    Workload {
        name: format!("mesh {side}x{side}"),
        graph: generators::grid2d(side, side, WeightKind::Unit, 0),
        grid_shape: Some((side, side)),
    }
}

/// Random geometric graph on `n` points (planar-ish, small separators).
pub fn geometric(n: usize) -> Workload {
    let radius = (3.0 / (n as f64)).sqrt().max(0.08);
    Workload {
        name: format!("geometric n={n}"),
        graph: generators::random_geometric(n, radius, WeightKind::Unit, 1),
        grid_shape: None,
    }
}

/// Connected Erdős–Rényi graph (separator-hostile).
pub fn erdos_renyi(n: usize, p: f64) -> Workload {
    Workload {
        name: format!("gnp n={n} p={p}"),
        graph: generators::connected_gnp(n, p, WeightKind::Unit, 2),
        grid_shape: None,
    }
}

/// R-MAT power-law graph (hubs → large separators).
pub fn power_law(scale: u32) -> Workload {
    Workload {
        name: format!("rmat 2^{scale}"),
        graph: generators::rmat(scale, 4, WeightKind::Unit, 3),
        grid_shape: None,
    }
}

/// Watts–Strogatz small world (locality plus shortcuts).
pub fn small_world(n: usize, beta: f64) -> Workload {
    Workload {
        name: format!("small-world n={n} b={beta}"),
        graph: generators::watts_strogatz(n, 2, beta, WeightKind::Unit, 5),
        grid_shape: None,
    }
}

/// Barabási–Albert preferential attachment (hubs).
pub fn scale_free(n: usize) -> Workload {
    Workload {
        name: format!("scale-free n={n}"),
        graph: generators::barabasi_albert(n, 2, WeightKind::Unit, 6),
        grid_shape: None,
    }
}

/// Triangulated mesh (planar, heavier than the 4-neighbour grid).
pub fn triangulated(side: usize) -> Workload {
    Workload {
        name: format!("tri-mesh {side}x{side}"),
        graph: generators::tri_mesh(side, side, WeightKind::Unit, 7),
        grid_shape: None,
    }
}

/// 3-D mesh (`|S| = Θ(n^{2/3})` — between the 2-D and random regimes).
pub fn mesh3d(side: usize) -> Workload {
    Workload {
        name: format!("mesh3d {side}^3"),
        graph: generators::grid3d(side, side, side, WeightKind::Unit, 4),
        grid_shape: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_construct() {
        assert_eq!(mesh(8).graph.n(), 64);
        assert_eq!(mesh(8).grid_shape, Some((8, 8)));
        assert!(geometric(100).graph.n() == 100);
        assert!(erdos_renyi(50, 0.05).graph.is_connected());
        assert_eq!(power_law(6).graph.n(), 64);
        assert_eq!(mesh3d(3).graph.n(), 27);
        assert!(small_world(40, 0.1).graph.is_connected());
        assert_eq!(scale_free(50).graph.n(), 50);
        assert_eq!(triangulated(5).graph.n(), 25);
    }
}
