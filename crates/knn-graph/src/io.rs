//! Checksummed persistence of KNN graphs.
//!
//! Graph construction is the dominant cost of the GK-means pipeline (Tab. 2:
//! the init phase), so the harness caches built graphs on disk between
//! experiment runs.  A graph file is a GKSC v2 container
//! ([`vecstore::io::write_sections_to`]) holding `G_{n×κ}` as flat arrays:
//!
//! | tag        | payload |
//! |------------|---------|
//! | `KNNSHAPE` | `n` and `k`, little-endian `u64` each |
//! | `KNNLENS`  | `n` little-endian `u32` list lengths |
//! | `KNNIDS`   | Σ len little-endian `u32` neighbour ids, list after list |
//! | `KNNDISTS` | Σ len little-endian `f32` squared distances, same order |
//!
//! Every byte is CRC-covered, [`write_graph`] saves atomically, and every
//! way a file can be wrong — a flipped bit, a truncation, or a checksummed
//! payload that cannot describe a graph — is a typed
//! [`vecstore::StoreError`].

use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

use vecstore::io::{
    atomic_write, f32s_from_bytes, f32s_to_bytes, read_sections_from, u32s_from_bytes,
    u32s_to_bytes, u64s_from_bytes, u64s_to_bytes, write_sections_to, Section,
};
use vecstore::{Error, Result, StoreError};

use crate::graph::{KnnGraph, Neighbor, NeighborList};

/// Largest neighbour-list capacity the reader accepts.  Real KNN graphs use
/// κ in the tens; the bound only exists so a corrupt shape cannot request a
/// gigantic allocation.
const MAX_GRAPH_K: usize = 1 << 16;

const TAG_SHAPE: &str = "KNNSHAPE";
const TAG_LENS: &str = "KNNLENS";
const TAG_IDS: &str = "KNNIDS";
const TAG_DISTS: &str = "KNNDISTS";

fn invariant(section: &str, detail: String) -> Error {
    StoreError::Invariant {
        section: section.to_string(),
        detail,
    }
    .into()
}

/// Writes a graph to `path` atomically (temp file, fsync, rename).
///
/// # Errors
///
/// Returns [`Error::Io`] for underlying I/O failures.
pub fn write_graph(path: impl AsRef<Path>, graph: &KnnGraph) -> Result<()> {
    atomic_write(path, |w| write_graph_to(&mut *w, graph))
}

/// Writes a graph to an arbitrary writer.
///
/// # Errors
///
/// Returns [`Error::Io`] for underlying I/O failures.
pub fn write_graph_to(writer: impl Write, graph: &KnnGraph) -> Result<()> {
    let edges = graph.stored_edges();
    let mut lens = Vec::with_capacity(graph.len());
    let mut ids = Vec::with_capacity(edges);
    let mut dists = Vec::with_capacity(edges);
    for (_, list) in graph.iter() {
        lens.push(list.len() as u32);
        for nb in list.as_slice() {
            ids.push(nb.id);
            dists.push(nb.dist);
        }
    }
    let sections = [
        Section::new(TAG_SHAPE, u64s_to_bytes(&[graph.len(), graph.k()])),
        Section::new(TAG_LENS, u32s_to_bytes(&lens)),
        Section::new(TAG_IDS, u32s_to_bytes(&ids)),
        Section::new(TAG_DISTS, f32s_to_bytes(&dists)),
    ];
    write_sections_to(writer, &sections)
}

/// Reads a graph written by [`write_graph`].
///
/// # Errors
///
/// As [`read_graph_from`], plus [`Error::Io`] when the file cannot be opened.
pub fn read_graph(path: impl AsRef<Path>) -> Result<KnnGraph> {
    let file = File::open(path)?;
    read_graph_from(BufReader::new(file))
}

/// Reads a graph from an arbitrary reader.
///
/// # Errors
///
/// Returns [`Error::Store`]: the container's own corruption classes, or
/// [`StoreError::Invariant`] when a section is missing or the sections do
/// not describe a graph — `k` above the supported maximum, more than
/// `u32::MAX` nodes, a list longer than `k`, a neighbour id out of range or
/// listed twice, a non-finite distance, or id and distance counts that
/// disagree with the list lengths.
pub fn read_graph_from(reader: impl Read) -> Result<KnnGraph> {
    let sections = read_sections_from(reader)?;
    let find = |tag: &str| -> Result<&[u8]> {
        sections
            .iter()
            .find(|s| s.has_tag(tag))
            .map(|s| s.payload.as_slice())
            .ok_or_else(|| invariant(tag, "section is missing".to_string()))
    };
    let shape = u64s_from_bytes(find(TAG_SHAPE)?, TAG_SHAPE)?;
    let &[n, k] = shape.as_slice() else {
        return Err(invariant(
            TAG_SHAPE,
            format!("{} values (expected n and k)", shape.len()),
        ));
    };
    if k > MAX_GRAPH_K {
        return Err(invariant(
            TAG_SHAPE,
            format!("k = {k} exceeds the supported maximum {MAX_GRAPH_K}"),
        ));
    }
    if n as u64 > u64::from(u32::MAX) {
        return Err(invariant(
            TAG_SHAPE,
            format!("{n} nodes exceed the u32 id space of the format"),
        ));
    }
    let lens = u32s_from_bytes(find(TAG_LENS)?, TAG_LENS)?;
    let ids = u32s_from_bytes(find(TAG_IDS)?, TAG_IDS)?;
    let dists = f32s_from_bytes(find(TAG_DISTS)?, TAG_DISTS)?;
    if lens.len() != n {
        return Err(invariant(
            TAG_LENS,
            format!("{} list lengths for {n} nodes", lens.len()),
        ));
    }
    if let Some(i) = lens.iter().position(|&len| len as usize > k) {
        return Err(invariant(
            TAG_LENS,
            format!("node {i} declares {} neighbours but k = {k}", lens[i]),
        ));
    }
    let edges: usize = lens.iter().map(|&len| len as usize).sum();
    if ids.len() != edges || dists.len() != edges {
        return Err(invariant(
            TAG_IDS,
            format!(
                "{} ids and {} distances for {edges} list entries",
                ids.len(),
                dists.len()
            ),
        ));
    }
    if let Some(&id) = ids.iter().find(|&&id| id as usize >= n) {
        return Err(invariant(
            TAG_IDS,
            format!("neighbour id {id} is out of range for {n} nodes"),
        ));
    }
    if let Some(dist) = dists.iter().find(|d| !d.is_finite()) {
        return Err(invariant(
            TAG_DISTS,
            format!("distance {dist} is not finite"),
        ));
    }
    let mut entries = ids.into_iter().zip(dists);
    let mut lists = Vec::with_capacity(n);
    for (i, &len) in lens.iter().enumerate() {
        let mut list = NeighborList::with_capacity(k);
        for (id, dist) in entries.by_ref().take(len as usize) {
            // With `len ≤ k` an insert only fails on a repeated id.
            if !list.insert(Neighbor::new(id, dist)) {
                return Err(invariant(
                    TAG_IDS,
                    format!("node {i} lists neighbour {id} twice"),
                ));
            }
        }
        lists.push(list);
    }
    Ok(KnnGraph::from_lists(lists, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_graph() -> KnnGraph {
        let mut g = KnnGraph::empty(5, 3);
        g.update_pair(0, 1, 1.0);
        g.update_pair(0, 2, 4.0);
        g.update_pair(1, 3, 2.5);
        g.update(4, 0, 9.0);
        g
    }

    fn image(g: &KnnGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_graph_to(&mut buf, g).unwrap();
        buf
    }

    /// Re-encodes `g`'s sections after `edit`, with fresh (valid) checksums,
    /// so only the graph-level checks can object.
    fn edited(g: &KnnGraph, edit: impl Fn(&mut Vec<Section>)) -> Vec<u8> {
        let mut sections = read_sections_from(Cursor::new(image(g))).unwrap();
        edit(&mut sections);
        let mut buf = Vec::new();
        write_sections_to(&mut buf, &sections).unwrap();
        buf
    }

    fn set(sections: &mut [Section], tag: &str, payload: Vec<u8>) {
        for s in sections.iter_mut().filter(|s| s.has_tag(tag)) {
            s.payload = payload.clone();
        }
    }

    fn invariant_in(buf: Vec<u8>) -> String {
        match read_graph_from(Cursor::new(buf)).unwrap_err() {
            Error::Store(StoreError::Invariant { section, .. }) => section,
            other => panic!("expected an invariant violation, got {other}"),
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = sample_graph();
        let back = read_graph_from(Cursor::new(image(&g))).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.k(), g.k());
        for i in 0..g.len() {
            assert_eq!(
                back.neighbors(i).as_slice(),
                g.neighbors(i).as_slice(),
                "node {i}"
            );
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = image(&sample_graph());
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_graph_from(Cursor::new(buf)).unwrap_err(),
            Error::Store(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn out_of_range_neighbour_is_rejected() {
        let buf = edited(&sample_graph(), |s| {
            set(s, TAG_IDS, u32s_to_bytes(&[1, 2, 7, 0, 3, 1, 0]));
        });
        assert_eq!(invariant_in(buf), TAG_IDS);
    }

    #[test]
    fn repeated_neighbour_is_rejected() {
        let buf = edited(&sample_graph(), |s| {
            set(s, TAG_IDS, u32s_to_bytes(&[1, 1, 0, 3, 0, 1, 0]));
        });
        assert_eq!(invariant_in(buf), TAG_IDS);
    }

    #[test]
    fn oversized_list_is_rejected() {
        // node 0 claims 5 neighbours with k = 3
        let buf = edited(&sample_graph(), |s| {
            set(s, TAG_LENS, u32s_to_bytes(&[5, 2, 1, 1, 1]));
        });
        assert_eq!(invariant_in(buf), TAG_LENS);
    }

    #[test]
    fn inconsistent_or_missing_sections_are_rejected() {
        let g = sample_graph();
        // k above the bound, n beyond the u32 id space, a short shape
        for shape in [vec![5, MAX_GRAPH_K + 1], vec![1 << 33, 3], vec![5]] {
            let buf = edited(&g, |s| set(s, TAG_SHAPE, u64s_to_bytes(&shape)));
            assert_eq!(invariant_in(buf), TAG_SHAPE, "shape {shape:?}");
        }
        // lengths for the wrong node count
        let buf = edited(&g, |s| set(s, TAG_LENS, u32s_to_bytes(&[2, 2])));
        assert_eq!(invariant_in(buf), TAG_LENS);
        // one distance short of the list lengths
        let buf = edited(&g, |s| {
            for sec in s.iter_mut().filter(|sec| sec.has_tag(TAG_DISTS)) {
                sec.payload.truncate(sec.payload.len() - 4);
            }
        });
        assert_eq!(invariant_in(buf), TAG_IDS);
        // a non-finite distance
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let buf = edited(&g, |s| {
                for sec in s.iter_mut().filter(|sec| sec.has_tag(TAG_DISTS)) {
                    sec.payload[..4].copy_from_slice(&bad.to_le_bytes());
                }
            });
            assert_eq!(invariant_in(buf), TAG_DISTS, "distance {bad}");
        }
        // every section is required
        for tag in [TAG_SHAPE, TAG_LENS, TAG_IDS, TAG_DISTS] {
            let buf = edited(&g, |s| s.retain(|sec| !sec.has_tag(tag)));
            assert_eq!(invariant_in(buf), tag);
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = KnnGraph::empty(0, 4);
        let back = read_graph_from(Cursor::new(image(&g))).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.k(), 4);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("knn-graph-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.knng");
        let g = sample_graph();
        write_graph(&path, &g).unwrap();
        let back = read_graph(&path).unwrap();
        assert_eq!(back.stored_edges(), g.stored_edges());
        assert!(matches!(
            read_graph(dir.join("missing.knng")).unwrap_err(),
            Error::Io(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
