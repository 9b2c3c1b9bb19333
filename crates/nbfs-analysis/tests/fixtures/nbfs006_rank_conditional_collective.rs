//! Fixture: a rank-conditional collective — only rank 0 reaches the
//! allreduce, so the other ranks' contributions are never summed and the
//! BSP step cannot complete.
//! Linted as-if at `crates/nbfs-cli/src/fixture.rs`; must fire NBFS006 once.

pub fn lopsided(rank: usize, counts: &[u64], pmap: &ProcessMap, net: &NetworkModel) -> u64 {
    if rank == 0 {
        return allreduce_sum(counts, pmap, net).value;
    }
    0
}
