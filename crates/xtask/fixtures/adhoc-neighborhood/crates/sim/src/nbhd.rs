// Fixture: an ad-hoc neighborhood scan in library code. The whole-torus
// degree sum re-derives metric offsets per node instead of reading the
// shared stencil NeighborTable.

pub fn degree_sum(torus: &Torus, r: u32, metric: Metric) -> usize {
    let mut total = 0;
    for id in torus.node_ids() {
        total += torus.neighborhood(id, r, metric).count();
    }
    total
}
