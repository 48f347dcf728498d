//! Seeded workload plans: which standard traces, frontend columns and
//! request sub-grids each round runs. The seed decides everything; the
//! program under test only ever sees the generated grids.

use xbc_sim::FrontendSpec;
use xbc_workload::{standard_traces, Suite, TraceSpec};

/// SplitMix64: small, seedable, and stable across toolchains.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so workloads,
    /// rounds and clients draw independently of each other.
    pub fn new(seed: u64, stream: &str, index: u64) -> Rng {
        let salt = xbc_store::fnv1a64(stream.as_bytes());
        let mut r = Rng(seed ^ salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct items of `items`, in draw order.
    pub fn choose<T: Clone>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        for i in 0..k.min(idx.len()) {
            let j = i + self.below(idx.len() - i);
            idx.swap(i, j);
        }
        idx[..k.min(items.len())].iter().map(|&i| items[i].clone()).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Cheap columns: the instruction cache and small decoded-uop caches.
pub fn cheap_pool() -> Vec<FrontendSpec> {
    let mut v = vec![FrontendSpec::Ic];
    v.extend([1024, 2048, 4096].map(|total_uops| FrontendSpec::UopCache { total_uops }));
    v
}

/// Expensive columns: trace caches, block-based trace caches and XBCs
/// from 8K to 64K uops, plus associativity and promotion variants.
pub fn expensive_pool() -> Vec<FrontendSpec> {
    let mut v = Vec::new();
    for k in [8, 16, 32, 64] {
        let total_uops = k * 1024;
        v.push(FrontendSpec::Tc { total_uops, ways: 4 });
        v.push(FrontendSpec::Bbtc { total_uops });
        v.push(FrontendSpec::Xbc { total_uops, ways: 2, promotion: true });
        v.push(FrontendSpec::Xbc { total_uops, ways: 2, promotion: false });
    }
    v.push(FrontendSpec::Tc { total_uops: 32 * 1024, ways: 2 });
    v.push(FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 1, promotion: true });
    v.push(FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 4, promotion: true });
    v
}

/// One client request: a sub-grid of traces × columns.
#[derive(Clone, Debug)]
pub struct Grid {
    pub traces: Vec<TraceSpec>,
    pub frontends: Vec<FrontendSpec>,
}

impl Grid {
    pub fn cells(&self) -> impl Iterator<Item = (&TraceSpec, &FrontendSpec)> {
        self.traces.iter().flat_map(move |t| self.frontends.iter().map(move |f| (t, f)))
    }

    pub fn len(&self) -> usize {
        self.traces.len() * self.frontends.len()
    }
}

/// Traces per `cold-sweep` round.
pub const COLD_TRACES: usize = 4;

/// The `cold-sweep` grid of round `round`: [`COLD_TRACES`] traces × the
/// instruction cache and one small uop cache. The traces are read
/// cyclically from one seeded order of all 21, which shuffles each suite
/// and then interleaves the suites, so every round spans the suites and
/// a run's rounds cover every trace equally often whatever the seed.
pub fn cold_round(seed: u64, round: u64) -> Grid {
    let all = standard_traces();
    let mut suites: Vec<Vec<TraceSpec>> = [Suite::SpecInt95, Suite::Sysmark32, Suite::Games]
        .into_iter()
        .enumerate()
        .map(|(i, suite)| {
            let mut members: Vec<TraceSpec> =
                all.iter().filter(|t| t.suite == suite).cloned().collect();
            Rng::new(seed, "cold-sweep-order", i as u64).shuffle(&mut members);
            members
        })
        .collect();
    let mut order = Vec::new();
    while suites.iter().any(|s| !s.is_empty()) {
        for s in &mut suites {
            if !s.is_empty() {
                order.push(s.remove(0));
            }
        }
    }
    let start = round as usize * COLD_TRACES;
    let traces = (start..start + COLD_TRACES).map(|j| order[j % order.len()].clone()).collect();
    let uop = Rng::new(seed, "cold-sweep", round).choose(&cheap_pool()[1..], 1);
    Grid { traces, frontends: [vec![FrontendSpec::Ic], uop].concat() }
}

/// The `replay-serve` run: set-up captures every standard trace; rounds
/// draw their cells from these traces × the expensive columns.
pub fn replay_run() -> Grid {
    Grid { traces: standard_traces(), frontends: expensive_pool() }
}

/// Requests per client per `replay-serve` round, and how many of them
/// the two clients share.
pub const REPLAY_UNITS_PER_CLIENT: usize = 5;
pub const REPLAY_SHARED_UNITS: usize = 1;

/// The two clients' request sequences of `replay-serve` round `round`:
/// units of 1 trace × 2 columns, all cells distinct; the clients share
/// [`REPLAY_SHARED_UNITS`] units (single-flight dedup or a late cache
/// hit, whichever the timing gives) and issue their units in their own
/// seeded order.
pub fn replay_round(run: &Grid, seed: u64, round: u64) -> [Vec<Grid>; 2] {
    let mut rng = Rng::new(seed, "replay-serve-round", round);
    let n_units = 2 * REPLAY_UNITS_PER_CLIENT - REPLAY_SHARED_UNITS;
    let mut units: Vec<Grid> = Vec::new();
    let mut used: Vec<(usize, usize)> = Vec::new();
    while units.len() < n_units {
        let t = rng.below(run.traces.len());
        let cols: Vec<usize> = rng.choose(&(0..run.frontends.len()).collect::<Vec<_>>(), 2);
        if cols.iter().any(|&c| used.contains(&(t, c))) {
            continue;
        }
        used.extend(cols.iter().map(|&c| (t, c)));
        units.push(Grid {
            traces: vec![run.traces[t].clone()],
            frontends: cols.iter().map(|&c| run.frontends[c]).collect(),
        });
    }
    let split = REPLAY_UNITS_PER_CLIENT - REPLAY_SHARED_UNITS;
    let mut a = units[..REPLAY_UNITS_PER_CLIENT].to_vec();
    let mut b = units[split..].to_vec();
    rng.shuffle(&mut a);
    rng.shuffle(&mut b);
    [a, b]
}

/// The `warm-serve` run: every standard trace × 10 columns drawn from
/// both pools; set-up stores every row.
pub fn warm_run(seed: u64) -> Grid {
    let mut rng = Rng::new(seed, "warm-serve", u64::MAX);
    let pool = [cheap_pool(), expensive_pool()].concat();
    Grid { traces: standard_traces(), frontends: rng.choose(&pool, 10) }
}

/// Requests per client per `warm-serve` round.
pub const WARM_REQUESTS_PER_CLIENT: usize = 10;

/// One client's `warm-serve` round: sub-grids of 5 traces × 6 columns
/// of the stored grid.
pub fn warm_round(run: &Grid, seed: u64, round: u64, client: u64) -> Vec<Grid> {
    let mut rng = Rng::new(seed, "warm-serve-round", round * 2 + client);
    (0..WARM_REQUESTS_PER_CLIENT)
        .map(|_| Grid {
            traces: rng.choose(&run.traces, 5),
            frontends: rng.choose(&run.frontends, 6),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn plans_are_seed_determined() {
        let a = cold_round(7, 3);
        let b = cold_round(7, 3);
        assert_eq!(
            a.traces.iter().map(|t| t.name).collect::<Vec<_>>(),
            b.traces.iter().map(|t| t.name).collect::<Vec<_>>()
        );
        assert_eq!(a.frontends, b.frontends);
        assert_ne!(
            (1..20).map(|s| cold_round(s, 0).traces[0].name).collect::<BTreeSet<_>>().len(),
            1,
            "different seeds draw different traces"
        );
    }

    #[test]
    fn cold_rounds_cover_every_trace_equally() {
        let mut seen = std::collections::BTreeMap::new();
        for round in 0..21 {
            let g = cold_round(5, round);
            assert_eq!(g.traces.len(), COLD_TRACES);
            for t in g.traces {
                *seen.entry(t.name).or_insert(0) += 1;
            }
        }
        assert_eq!(seen.len(), 21);
        assert!(seen.values().all(|&n| n == COLD_TRACES));
    }

    #[test]
    fn replay_round_cells_are_distinct_and_shared_as_planned() {
        let run = replay_run();
        for round in 0..20 {
            let [a, b] = replay_round(&run, 11, round);
            assert_eq!(a.len(), REPLAY_UNITS_PER_CLIENT);
            let key = |g: &Grid| format!("{}{:?}", g.traces[0].name, g.frontends);
            let sa: BTreeSet<String> = a.iter().map(key).collect();
            let sb: BTreeSet<String> = b.iter().map(key).collect();
            assert_eq!(sa.intersection(&sb).count(), REPLAY_SHARED_UNITS);
            let cells: BTreeSet<String> = a
                .iter()
                .chain(&b)
                .flat_map(|g| g.cells().map(|(t, f)| format!("{}{f:?}", t.name)))
                .collect();
            assert_eq!(cells.len(), 2 * (2 * REPLAY_UNITS_PER_CLIENT - REPLAY_SHARED_UNITS));
        }
    }
}
