//! Answer checks. Every read the benchmark times is compared with an exact
//! baseline; a mismatch is a failed operation.

use sdq_baselines::BrsIndex;
use sdq_core::{Dataset, PointId, ScoredPoint, SdQuery};
use sdq_engine::SdEngine;

use crate::workload::Digest;

/// An answer as (client key, score) pairs. On the read workloads the key is
/// the row id; on `durable-mixed` it is the client's own id, because
/// compaction renumbers the engine's rows.
pub type Keyed = Vec<(u32, f64)>;

/// Scores non-increasing and equal scores in ascending id order: the
/// canonical order every method of the workspace promises.
pub fn canonical(answer: &[ScoredPoint]) -> bool {
    answer.windows(2).all(|w| {
        let (a, b) = (&w[0], &w[1]);
        a.score > b.score || (a.score == b.score && a.id < b.id)
    })
}

/// Exact comparison: same keys in the same order with bit-identical scores.
pub fn same(got: &[(u32, f64)], want: &[(u32, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

pub fn by_id(answer: &[ScoredPoint]) -> Keyed {
    answer.iter().map(|p| (p.id.raw(), p.score)).collect()
}

/// Checks `got` (in canonical order, as ids) against the exact `want`.
pub fn verify(
    what: &str,
    got: &[ScoredPoint],
    keyed: &[(u32, f64)],
    want: &[(u32, f64)],
) -> Result<(), String> {
    if !canonical(got) {
        return Err(format!("{what}: answer not in canonical order"));
    }
    if !same(keyed, want) {
        return Err(format!(
            "{what}: answer differs from the baseline: got {keyed:?}, want {want:?}"
        ));
    }
    Ok(())
}

pub fn digest_answer(d: &mut Digest, answer: &[(u32, f64)]) {
    d.u64(answer.len() as u64);
    for &(key, score) in answer {
        d.u64(u64::from(key));
        d.f64(score);
    }
}

/// The client's view of a durable engine: a BRS index that receives the
/// same inserts and deletes, every row it ever wrote, and the map from
/// engine row ids to client keys.
///
/// Client keys count rows in write order. The BRS index assigns ids the
/// same way (bulk-loaded rows first, then one fresh id per insert), so a
/// BRS id is the client key. The engine renumbers on compaction — live
/// base rows in id order, then live delta rows in insertion order — which
/// keeps engine ids in client-key order, so ties resolve alike on both
/// sides.
#[derive(Debug)]
pub struct Mirror {
    pub brs: BrsIndex,
    dims: usize,
    rows: Vec<f64>,
    live: Vec<bool>,
    live_keys: Vec<u32>,
    engine_keys: Vec<u32>,
    key_engine: Vec<u32>,
    /// Keys of the rows the last checkpoint wrote, in snapshot row order.
    checkpoint: Vec<u32>,
}

impl Mirror {
    /// A mirror of a freshly built engine over `data`, served by `brs`
    /// (built over the same rows).
    pub fn new(brs: BrsIndex, data: &Dataset) -> Self {
        let n = data.len() as u32;
        Mirror {
            brs,
            dims: data.dims(),
            rows: data.flat().to_vec(),
            live: vec![true; n as usize],
            live_keys: (0..n).collect(),
            engine_keys: (0..n).collect(),
            key_engine: (0..n).collect(),
            checkpoint: (0..n).collect(),
        }
    }

    pub fn live_rows(&self) -> usize {
        self.live_keys.len()
    }

    /// Records an acknowledged insert the engine assigned `engine_id`.
    pub fn insert(&mut self, row: &[f64], engine_id: PointId) -> Result<(), String> {
        let key = self.live.len() as u32;
        if engine_id.index() != self.engine_keys.len() {
            return Err(format!(
                "insert: engine assigned id {} but {} rows were expected before it",
                engine_id.index(),
                self.engine_keys.len()
            ));
        }
        let brs_id = self.brs.insert(row);
        if brs_id.raw() != key {
            return Err(format!(
                "insert: BRS assigned id {} to key {key}",
                brs_id.raw()
            ));
        }
        self.rows.extend_from_slice(row);
        self.live.push(true);
        self.live_keys.push(key);
        self.engine_keys.push(key);
        self.key_engine.push(engine_id.raw());
        Ok(())
    }

    /// Chooses the live row a delete draw names: (slot, engine id). Pass the
    /// slot to [`Mirror::delete`] once the engine acknowledged the delete.
    pub fn pick(&self, draw: u64) -> (usize, PointId) {
        let slot = (draw % self.live_keys.len() as u64) as usize;
        (
            slot,
            PointId::new(self.key_engine[self.live_keys[slot] as usize]),
        )
    }

    /// Records an acknowledged delete of the row [`Mirror::pick`] chose.
    pub fn delete(&mut self, slot: usize) -> Result<(), String> {
        let key = self.live_keys.swap_remove(slot);
        self.live[key as usize] = false;
        if !self.brs.delete(PointId::new(key)) {
            return Err(format!("delete: BRS did not hold key {key}"));
        }
        Ok(())
    }

    /// Follows a compaction's renumbering and the checkpoint that ends it.
    pub fn compacted(&mut self) {
        let live = &self.live;
        self.engine_keys.retain(|&k| live[k as usize]);
        for (id, &key) in self.engine_keys.iter().enumerate() {
            self.key_engine[key as usize] = id as u32;
        }
        self.checkpoint.clone_from(&self.engine_keys);
    }

    /// Maps an engine answer to client keys.
    pub fn keyed(&self, answer: &[ScoredPoint]) -> Result<Keyed, String> {
        answer
            .iter()
            .map(|p| {
                self.engine_keys
                    .get(p.id.index())
                    .map(|&k| (k, p.score))
                    .ok_or_else(|| format!("answer holds unknown engine id {}", p.id.index()))
            })
            .collect()
    }

    pub fn brs_answer(&self, q: &SdQuery, k: usize) -> Result<Keyed, String> {
        self.brs
            .query(q, k)
            .map(|a| by_id(&a))
            .map_err(|e| format!("BRS: {e}"))
    }

    /// The live rows in engine-id order plus their keys, for a SeqScan
    /// cross-check (SeqScan ids are positions in this dataset).
    pub fn live_dataset(&self) -> (Dataset, Vec<u32>) {
        let keys: Vec<u32> = self
            .engine_keys
            .iter()
            .copied()
            .filter(|&k| self.live[k as usize])
            .collect();
        self.rows_of(keys)
    }

    /// The rows of the last checkpoint in snapshot order plus their keys:
    /// what a cold start from the snapshot serves.
    pub fn checkpoint_rows(&self) -> (Dataset, Vec<u32>) {
        self.rows_of(self.checkpoint.clone())
    }

    fn rows_of(&self, keys: Vec<u32>) -> (Dataset, Vec<u32>) {
        let mut flat = Vec::with_capacity(keys.len() * self.dims);
        for &k in &keys {
            flat.extend_from_slice(self.row(k));
        }
        (
            Dataset::from_flat(self.dims, flat).expect("mirror rows are finite"),
            keys,
        )
    }

    fn row(&self, key: u32) -> &[f64] {
        let at = key as usize * self.dims;
        &self.rows[at..at + self.dims]
    }

    /// Checks that `engine` holds exactly the acknowledged history: row
    /// counts, the tombstone set, and bit-for-bit every delta row (the
    /// writes logged since the last checkpoint).
    pub fn verify_state(&self, engine: &SdEngine) -> Result<(), String> {
        if engine.total_rows() != self.engine_keys.len() {
            return Err(format!(
                "reopen: {} rows, {} acknowledged",
                engine.total_rows(),
                self.engine_keys.len()
            ));
        }
        if engine.len() != self.live_rows() {
            return Err(format!(
                "reopen: {} live rows, {} acknowledged",
                engine.len(),
                self.live_rows()
            ));
        }
        let dead: Vec<u32> = (0..self.engine_keys.len() as u32)
            .filter(|&id| !self.live[self.engine_keys[id as usize] as usize])
            .collect();
        if engine.tombstone_ids() != dead {
            return Err("reopen: tombstones differ from the acknowledged deletes".into());
        }
        let base = engine.total_rows() - engine.delta_rows();
        let want: Vec<f64> = self.engine_keys[base..]
            .iter()
            .flat_map(|&k| self.row(k).iter().copied())
            .collect();
        let got = engine.delta().flat();
        if got.len() != want.len()
            || got
                .iter()
                .zip(&want)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("reopen: delta rows differ from the acknowledged inserts".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdq_core::DimRole;

    fn sp(id: u32, score: f64) -> ScoredPoint {
        ScoredPoint::new(PointId::new(id), score)
    }

    #[test]
    fn canonical_order_breaks_ties_by_id() {
        assert!(canonical(&[sp(4, 3.0), sp(1, 2.0), sp(2, 2.0)]));
        assert!(!canonical(&[sp(4, 3.0), sp(2, 2.0), sp(1, 2.0)]));
        assert!(!canonical(&[sp(1, 1.0), sp(2, 2.0)]));
    }

    #[test]
    fn exact_comparison_is_bitwise() {
        let a = vec![(1, 0.1 + 0.2)];
        assert!(same(&a, &[(1, 0.1 + 0.2)]));
        assert!(!same(&a, &[(1, 0.3)]));
        assert!(!same(&a, &[(2, 0.1 + 0.2)]));
        assert!(!same(&a, &[]));
    }

    #[test]
    fn mirror_follows_inserts_deletes_and_compaction() {
        let roles = [DimRole::Attractive, DimRole::Repulsive];
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![i as f64 * 0.37 % 1.0, i as f64 * 0.11 % 1.0])
            .collect();
        let data = Dataset::from_rows(2, &rows).unwrap();
        let mut engine = SdEngine::build(data.clone(), &roles).unwrap();
        let mut mirror = Mirror::new(BrsIndex::build(&data, &roles).unwrap(), &data);

        let fresh = [0.5, 9.0];
        let id = engine.insert(&fresh).unwrap();
        mirror.insert(&fresh, id).unwrap();
        let (slot, eid) = mirror.pick(5);
        assert!(engine.delete(eid).unwrap());
        mirror.delete(slot).unwrap();
        mirror.verify_state(&engine).unwrap();

        let q = SdQuery::uniform_weights(vec![0.5, 0.5], &roles);
        let check = |engine: &SdEngine, mirror: &Mirror| {
            let got = engine.query(&q, 8).unwrap();
            let keyed = mirror.keyed(&got).unwrap();
            verify("engine", &got, &keyed, &mirror.brs_answer(&q, 8).unwrap()).unwrap();
            keyed
        };
        let before = check(&engine, &mirror);
        assert_eq!(before[0].0, 64, "the fresh row wins on its repulsive dim");

        engine.compact().unwrap();
        mirror.compacted();
        mirror.verify_state(&engine).unwrap();
        assert_eq!(check(&engine, &mirror), before, "keys survive renumbering");

        let (ds, keys) = mirror.live_dataset();
        assert_eq!(ds.len(), 64);
        assert!(
            !keys.contains(&eid.raw()),
            "engine ids were keys before compaction"
        );
    }
}
