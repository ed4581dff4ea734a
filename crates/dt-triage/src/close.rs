//! The one window close both runtimes share (paper §5.1–5.3): the
//! kept rows run each query's main plan, the kept and dropped
//! synopses feed its shadow plan, and the two results merge.
//! [`gather_seals`] folds a window's per-stream seals into the tables
//! the close reads; [`fan_out`] runs [`QueryExecutor::close`] for
//! every query over them. The simulator calls both; `dt-server`'s
//! merger gathers, and `dt-registry`'s `QueryRegistry::close_window`
//! fans out.

use dt_types::{ColumnBatch, DtError, DtResult, Row};

use crate::executor::{QueryClose, QueryExecutor, SharedStream, SynPair};
use crate::shed::ShedMode;
use crate::stream::SealedWindow;

/// One window's seals, folded across the physical streams. Every
/// per-stream table is indexed by physical stream.
#[derive(Debug, Default)]
pub struct GatheredWindow {
    /// Kept rows per stream, in arrival order.
    pub rows: Vec<Vec<Row>>,
    /// Sealed kept/dropped synopses per stream (synopsis modes only).
    pub pairs: Option<Vec<SynPair>>,
    /// `(kept, dropped)` tuple counts per stream.
    pub counts: Vec<(u64, u64)>,
    /// Tuples that arrived for the window, over every stream.
    pub arrived: u64,
    /// Tuples kept, over every stream.
    pub kept: u64,
    /// Tuples shed, over every stream.
    pub dropped: u64,
    /// Some stream's seal may be incomplete beyond normal shedding.
    pub degraded: bool,
    /// Summed [`dt_synopsis::Synopsis::memory_units`] of every synopsis
    /// in `pairs` (0 without synopses).
    pub memory_units: usize,
}

/// Fold one window's seals, one per physical stream in index order,
/// into a [`GatheredWindow`]. In a synopsis mode every seal must carry
/// its synopsis pair.
pub fn gather_seals(
    seals: impl IntoIterator<Item = SealedWindow>,
    mode: ShedMode,
) -> DtResult<GatheredWindow> {
    let mut g = GatheredWindow::default();
    let mut pairs = Vec::new();
    for sw in seals {
        g.arrived += sw.arrived;
        g.kept += sw.kept;
        g.dropped += sw.dropped;
        g.degraded |= sw.degraded;
        g.counts.push((sw.kept, sw.dropped));
        g.rows.push(sw.rows);
        pairs.extend(sw.syn);
    }
    if mode.uses_synopses() {
        if pairs.len() != g.rows.len() {
            return Err(DtError::engine("sealed window missing synopses"));
        }
        g.memory_units = pairs
            .iter()
            .map(|p| p.kept.memory_units() + p.dropped.memory_units())
            .sum();
        g.pairs = Some(pairs);
    }
    Ok(g)
}

/// Close one window for every query, returning their [`QueryClose`]s
/// in query order. A query is `(exec, plan, phys)`: plan `plan` of
/// `exec`, whose stream `i` is physical stream `phys[i]`. `rows[p]`
/// and `pairs[p]` belong to physical stream `p` of `streams`; a table
/// that does not cover exactly those streams is a structured error.
/// Each stream some query reads becomes a [`ColumnBatch`] once, which
/// every query reading it borrows.
pub fn fan_out<'a>(
    streams: &[SharedStream],
    rows: &[Vec<Row>],
    pairs: Option<&[SynPair]>,
    queries: impl IntoIterator<Item = (&'a QueryExecutor, usize, &'a [usize])>,
) -> DtResult<Vec<QueryClose>> {
    let n = streams.len();
    let n_pairs = pairs.map_or(n, <[SynPair]>::len);
    if rows.len() != n || n_pairs != n {
        return Err(DtError::config(format!(
            "window close got {} row / {n_pairs} synopsis streams, stream table has {n}",
            rows.len(),
        )));
    }
    let mut cols: Vec<Option<ColumnBatch>> = vec![None; n];
    queries
        .into_iter()
        .map(|(exec, plan, phys)| {
            for &p in phys {
                cols[p].get_or_insert_with(|| {
                    ColumnBatch::from_rows(streams[p].schema.arity(), &rows[p])
                });
            }
            let batches: Vec<&ColumnBatch> =
                phys.iter().filter_map(|&p| cols[p].as_ref()).collect();
            let pair_refs: Option<Vec<&SynPair>> =
                pairs.map(|pairs| phys.iter().map(|&p| &pairs[p]).collect());
            exec.close(plan, &batches, pair_refs.as_deref())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_synopsis::SynopsisConfig;
    use dt_types::{Timestamp, Tuple, VDuration, WindowSpec};

    use crate::stream::StreamTriage;

    /// Window 0's seal of stream `stream` after keeping `kept` and
    /// shedding `shed`.
    fn seal(stream: usize, kept: &[i64], shed: &[i64], degraded: bool) -> SealedWindow {
        let spec = WindowSpec::new(VDuration::from_secs(1)).unwrap();
        let syn = SynopsisConfig::Sparse { cell_width: 1 };
        let mut t = StreamTriage::new(stream, 1, ShedMode::DataTriage, syn, spec);
        if degraded {
            t.mark_degraded_until(1);
        }
        let tup = |v| Tuple::new(Row::from_ints(&[v]), Timestamp::ZERO);
        let mut seqs = 0..;
        for &v in kept {
            t.keep_seq(&tup(v), seqs.next().unwrap()).unwrap();
        }
        for &v in shed {
            t.shed_seq(&tup(v), seqs.next().unwrap()).unwrap();
        }
        t.seal_through(0).unwrap().pop().unwrap()
    }

    #[test]
    fn gather_folds_counts_and_tables_in_stream_order() {
        let g = gather_seals(
            [seal(0, &[1, 1], &[2], false), seal(1, &[7], &[], true)],
            ShedMode::DataTriage,
        )
        .unwrap();
        assert_eq!(g.counts, vec![(2, 1), (1, 0)]);
        assert_eq!((g.arrived, g.kept, g.dropped, g.degraded), (4, 3, 1, true));
        assert_eq!(g.rows[1], vec![Row::from_ints(&[7])]);
        let pairs = g.pairs.as_ref().unwrap();
        let units: usize = pairs
            .iter()
            .map(|p| p.kept.memory_units() + p.dropped.memory_units())
            .sum();
        assert!(units > 0);
        assert_eq!(g.memory_units, units);
        // Drop-only gathers no synopses; a synopsis mode rejects a
        // seal without them.
        let mut bare = seal(0, &[1], &[], false);
        bare.syn = None;
        let g = gather_seals([bare.clone()], ShedMode::DropOnly).unwrap();
        assert!(g.pairs.is_none() && g.memory_units == 0);
        assert!(gather_seals([bare], ShedMode::DataTriage).is_err());
    }
}
