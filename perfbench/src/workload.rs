//! The three workloads and the seeded inputs they hand to the program.
//!
//! Every input — dataset, query pool, inserted rows and the op sequence —
//! is derived from the `--seed` argument alone, so one seed always yields
//! the same inputs and (the program being deterministic) the same answers.

use rand::{Rng, SeedableRng};
use sdq_core::{Dataset, SdQuery};
use sdq_data::queries::uniform_queries;
use sdq_data::synthetic::{generate, Distribution};

/// What the timed phase of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Queries only, against a clean engine.
    Reads,
    /// A durable engine serving a seeded read/insert/delete mix.
    Mixed,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dist: Distribution,
    pub n: usize,
    pub dims: usize,
    pub roles: &'static str,
}

/// Top-k of every workload: the paper's default setting.
pub const K: usize = 16;

/// Distinct queries per run. Large enough that the p99 of one run does not
/// hinge on a handful of unlucky queries of one seed.
pub const QUERY_POOL: usize = 4096;

/// Op mix of the `durable-mixed` timed phase, in percent.
pub const READ_PCT: u32 = 70;
pub const INSERT_PCT: u32 = 20;

/// Compaction runs whenever the delta region reaches this share of the
/// base rows (1/100 = 1%).
pub const COMPACT_EVERY_DIVISOR: usize = 100;

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "paper-4d",
        kind: Kind::Reads,
        dist: Distribution::Uniform,
        n: 100_000,
        dims: 4,
        roles: "arra",
    },
    Spec {
        name: "anti-6d",
        kind: Kind::Reads,
        dist: Distribution::AntiCorrelated,
        n: 200_000,
        dims: 6,
        roles: "aaarrr",
    },
    Spec {
        name: "durable-mixed",
        kind: Kind::Mixed,
        dist: Distribution::Uniform,
        n: 100_000,
        dims: 4,
        roles: "arra",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The sub-seeds of one run, each a fixed function of `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub run: u64,
    pub data: u64,
    pub queries: u64,
    pub rows: u64,
    pub ops: u64,
}

/// SplitMix64 finaliser: decorrelates the sub-seeds of one run seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn new(run: u64) -> Self {
        Seeds {
            run,
            data: mix(run ^ 0xDA7A),
            queries: mix(run ^ 0x0E21),
            rows: mix(run ^ 0x120A),
            ops: mix(run ^ 0x0B5E),
        }
    }
}

/// One write or read of a mixed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query number `i` of the pool (taken modulo its size).
    Read(usize),
    Insert,
    /// Delete the live row at this draw, taken modulo the live count.
    Delete(u64),
}

/// Seeded op stream. `read_pct` of 0 gives the write-only stream of the
/// read workloads' write blocks and of the WAL tail.
#[derive(Debug)]
pub struct OpStream {
    rng: rand::rngs::StdRng,
    read_pct: u32,
    reads: usize,
}

impl OpStream {
    pub fn new(seed: u64, read_pct: u32) -> Self {
        OpStream {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            read_pct,
            reads: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let r: u32 = self.rng.gen_range(0..100);
        let write_pct = 100 - self.read_pct;
        if r < self.read_pct {
            self.reads += 1;
            Op::Read(self.reads - 1)
        } else if r < self.read_pct + write_pct * INSERT_PCT / (100 - READ_PCT) {
            Op::Insert
        } else {
            Op::Delete(self.rng.gen::<u64>())
        }
    }
}

/// Most rows the writes of one run can insert; they stop early
/// rather than reuse a row, so no two live rows share coordinates.
pub const INSERT_ROW_POOL: usize = 40_000;

pub fn generate_data(spec: &Spec, seeds: &Seeds) -> Dataset {
    generate(spec.dist, spec.n, spec.dims, seeds.data)
}

/// The §6.1 query pool: uniform points with `U(0, 1)` weights.
pub fn generate_queries(spec: &Spec, seeds: &Seeds) -> Vec<SdQuery> {
    uniform_queries(QUERY_POOL, spec.dims, seeds.queries)
}

/// Rows the writes insert, drawn from the workload's distribution.
pub fn generate_insert_rows(spec: &Spec, seeds: &Seeds) -> Dataset {
    generate(spec.dist, INSERT_ROW_POOL, spec.dims, seeds.rows)
}

/// 64-bit FNV-1a, used for the query-set and answer digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

pub fn query_digest(queries: &[SdQuery]) -> u64 {
    let mut d = Digest::default();
    for q in queries {
        q.point.iter().chain(&q.weights).for_each(|&v| d.f64(v));
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = Spec {
            n: 500,
            ..SPECS[1].clone()
        };
        let (a, b, c) = (Seeds::new(7), Seeds::new(7), Seeds::new(8));
        assert_eq!(
            generate_data(&spec, &a).flat(),
            generate_data(&spec, &b).flat()
        );
        assert_ne!(
            generate_data(&spec, &a).flat(),
            generate_data(&spec, &c).flat()
        );
        assert_eq!(
            generate_insert_rows(&spec, &a).flat(),
            generate_insert_rows(&spec, &b).flat()
        );
        let qa = query_digest(&generate_queries(&spec, &a));
        assert_eq!(qa, query_digest(&generate_queries(&spec, &b)));
        assert_ne!(qa, query_digest(&generate_queries(&spec, &c)));
    }

    #[test]
    fn op_mix_matches_the_stated_shares() {
        let mut s = OpStream::new(1, READ_PCT);
        let (mut r, mut i, mut d) = (0, 0, 0);
        for _ in 0..100_000 {
            match s.next_op() {
                Op::Read(_) => r += 1,
                Op::Insert => i += 1,
                Op::Delete(_) => d += 1,
            }
        }
        assert!((69_000..71_000).contains(&r), "{r}");
        assert!((19_000..21_000).contains(&i), "{i}");
        assert!((9_000..11_000).contains(&d), "{d}");

        // The write-only stream keeps inserts and deletes at 2 : 1.
        let mut w = OpStream::new(1, 0);
        let ins = (0..30_000).filter(|_| w.next_op() == Op::Insert).count();
        assert!((19_000..21_000).contains(&ins), "{ins}");
    }

    #[test]
    fn specs_are_consistent() {
        for s in &SPECS {
            let roles = sdq_store::parse_roles(s.roles).expect("valid roles");
            assert_eq!(roles.len(), s.dims, "{}", s.name);
            assert_eq!(spec(s.name).map(|x| x.name), Some(s.name));
        }
        assert!(spec("nope").is_none());
    }
}
