//! Checkpoints: checksummed snapshots of the writer-side store state
//! that bound WAL replay cost.
//!
//! A checkpoint captures everything [`GraphStore`](crate::GraphStore)
//! needs to resume at a generation without replaying the log from the
//! beginning: the counters, the published graph **in arena order** with its
//! stable keys, and every per-label row log *including tombstones and
//! slot order* — the published image of a table is "live rows in log
//! order", so storing the raw log (not just the live rows) lets recovery
//! publish images that are bit-identical to what the crashed process
//! served, and keeps the commit path's patched-image-equals-log
//! invariant intact across a restart.
//!
//! The file is one length-prefixed, CRC-checksummed frame (the WAL's
//! framing, [`seal_frame`]) written atomically: serialize to `*.tmp`,
//! fsync, rename into place.  Recovery loads the newest checkpoint that
//! passes its checksum and falls back to older ones (or to an empty
//! store) if the newest is unreadable.
//!
//! [`encode_frame`] streams the frame straight from the live store state
//! into one buffer, sized from the previous checkpoint, with the frame
//! header reserved at its front: no intermediate copy of the graph or
//! the row logs is built.  [`CheckpointImage`] is the decoded form
//! recovery rebuilds the store from.  The test-only
//! `build_checkpoint_image` and `encode` are the earlier clone-then-encode
//! path, kept as the byte-for-byte reference of the format.

use crate::error::{StoreError, StoreResult};
use crate::vfs::Vfs;
use crate::wal::{
    crc32, frame_buffer, put_str, put_u32, put_u64, put_value, seal_frame, Cursor, FrameTooLarge,
};
use crate::StoreState;
use graphiti_common::{Error, Ident, Result, Value};
use graphiti_relational::Row;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One node of the published graph, in arena order.
#[derive(Debug)]
pub(crate) struct CkptNode {
    pub(crate) key: u64,
    pub(crate) label: String,
    pub(crate) props: Vec<(String, Value)>,
}

/// One edge of the published graph, in arena order.  Endpoints are arena
/// indexes (valid because nodes are restored in arena order).
#[derive(Debug)]
pub(crate) struct CkptEdge {
    pub(crate) key: u64,
    pub(crate) label: String,
    pub(crate) src: u64,
    pub(crate) tgt: u64,
    pub(crate) props: Vec<(String, Value)>,
}

/// One per-label row log: every slot (live and tombstoned), in log order.
#[derive(Debug)]
pub(crate) struct CkptTable {
    pub(crate) name: String,
    pub(crate) columns: Vec<String>,
    /// `(dead, row)` per slot.
    pub(crate) slots: Vec<(bool, Row)>,
}

/// A complete writer-side image at one generation.
#[derive(Debug)]
pub(crate) struct CheckpointImage {
    pub(crate) generation: u64,
    pub(crate) commits: u64,
    pub(crate) rejected: u64,
    pub(crate) compactions: u64,
    pub(crate) next_key: u64,
    pub(crate) nodes: Vec<CkptNode>,
    pub(crate) edges: Vec<CkptEdge>,
    pub(crate) tables: Vec<CkptTable>,
    /// The commit-idempotency dedup entries `(token, generation)` in
    /// insertion (eviction) order, so a retried commit stays
    /// exactly-once across a crash+recovery.  Serialized as a trailing
    /// section: checkpoints written before tokens existed simply end
    /// early and decode to an empty table.
    pub(crate) tokens: Vec<(u128, u64)>,
}

fn put_props(buf: &mut Vec<u8>, props: &BTreeMap<Ident, Value>) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k.as_str());
        put_value(buf, v);
    }
}

/// Encodes the writer-side state as one sealed checkpoint frame:
/// counters, the published graph in arena order with its stable keys,
/// every row log slot-exactly (tombstones included, so published log
/// order survives recovery), and the idempotency entries.  Reads the
/// live structures in place; `capacity_hint` is the expected payload
/// size (the previous checkpoint's), so the buffer rarely regrows.
pub(crate) fn encode_frame(
    st: &StoreState,
    capacity_hint: usize,
) -> std::result::Result<Vec<u8>, FrameTooLarge> {
    // Headroom for the commits since the previous checkpoint: one
    // regrowth would copy the whole payload and double its footprint.
    let mut buf = frame_buffer(capacity_hint + capacity_hint / 8 + 4096);
    put_u64(&mut buf, st.generation);
    put_u64(&mut buf, st.commits.get());
    put_u64(&mut buf, st.rejected.get());
    put_u64(&mut buf, st.compactions.get());
    put_u64(&mut buf, st.next_key);
    let graph = st.graph();
    put_u32(&mut buf, graph.nodes().len() as u32);
    for n in graph.nodes() {
        put_u64(&mut buf, st.node_keys[n.id.0].0);
        put_str(&mut buf, n.label.as_str());
        put_props(&mut buf, &n.props);
    }
    put_u32(&mut buf, graph.edges().len() as u32);
    for e in graph.edges() {
        put_u64(&mut buf, st.edge_keys[e.id.0].0);
        put_str(&mut buf, e.label.as_str());
        put_u64(&mut buf, e.src.0 as u64);
        put_u64(&mut buf, e.tgt.0 as u64);
        put_props(&mut buf, &e.props);
    }
    put_u32(&mut buf, st.tables.len() as u32);
    for (name, t) in &st.tables {
        put_str(&mut buf, name);
        put_u32(&mut buf, t.columns().len() as u32);
        for c in t.columns() {
            put_str(&mut buf, c);
        }
        put_u32(&mut buf, t.log_len() as u32);
        for (dead, row) in t.log_slots() {
            buf.push(dead as u8);
            debug_assert_eq!(row.len(), t.columns().len(), "checkpoint row arity");
            for v in row {
                put_value(&mut buf, v);
            }
        }
    }
    let tokens = st.idempotency.entries();
    put_u32(&mut buf, tokens.len() as u32);
    for (token, generation) in tokens {
        put_u64(&mut buf, (token >> 64) as u64);
        put_u64(&mut buf, token as u64);
        put_u64(&mut buf, generation);
    }
    seal_frame(&mut buf)?;
    Ok(buf)
}

/// The retired clone-then-encode path's first half: the whole state
/// copied into a [`CheckpointImage`].  With [`encode`], the reference
/// [`encode_frame`] must match byte for byte.
#[cfg(test)]
pub(crate) fn build_checkpoint_image(st: &StoreState) -> CheckpointImage {
    let nodes = st
        .graph()
        .nodes()
        .iter()
        .map(|n| CkptNode {
            key: st.node_keys[n.id.0].0,
            label: n.label.as_str().to_owned(),
            props: n.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let edges = st
        .graph()
        .edges()
        .iter()
        .map(|e| CkptEdge {
            key: st.edge_keys[e.id.0].0,
            label: e.label.as_str().to_owned(),
            src: e.src.0 as u64,
            tgt: e.tgt.0 as u64,
            props: e.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let tables = st
        .tables
        .iter()
        .map(|(name, t)| CkptTable {
            name: name.clone(),
            columns: t.columns().to_vec(),
            slots: t.log_slots().map(|(dead, row)| (dead, row.clone())).collect(),
        })
        .collect();
    CheckpointImage {
        generation: st.generation,
        commits: st.commits.get(),
        rejected: st.rejected.get(),
        compactions: st.compactions.get(),
        next_key: st.next_key,
        nodes,
        edges,
        tables,
        tokens: st.idempotency.entries().collect(),
    }
}

#[cfg(test)]
fn put_string_props(buf: &mut Vec<u8>, props: &[(String, Value)]) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k);
        put_value(buf, v);
    }
}

/// The retired clone-then-encode path's second half: a checkpoint
/// payload from its image.
#[cfg(test)]
pub(crate) fn encode(image: &CheckpointImage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    put_u64(&mut buf, image.generation);
    put_u64(&mut buf, image.commits);
    put_u64(&mut buf, image.rejected);
    put_u64(&mut buf, image.compactions);
    put_u64(&mut buf, image.next_key);
    put_u32(&mut buf, image.nodes.len() as u32);
    for n in &image.nodes {
        put_u64(&mut buf, n.key);
        put_str(&mut buf, &n.label);
        put_string_props(&mut buf, &n.props);
    }
    put_u32(&mut buf, image.edges.len() as u32);
    for e in &image.edges {
        put_u64(&mut buf, e.key);
        put_str(&mut buf, &e.label);
        put_u64(&mut buf, e.src);
        put_u64(&mut buf, e.tgt);
        put_string_props(&mut buf, &e.props);
    }
    put_u32(&mut buf, image.tables.len() as u32);
    for t in &image.tables {
        put_str(&mut buf, &t.name);
        put_u32(&mut buf, t.columns.len() as u32);
        for c in &t.columns {
            put_str(&mut buf, c);
        }
        put_u32(&mut buf, t.slots.len() as u32);
        for (dead, row) in &t.slots {
            buf.push(*dead as u8);
            debug_assert_eq!(row.len(), t.columns.len(), "checkpoint row arity");
            for v in row {
                put_value(&mut buf, v);
            }
        }
    }
    put_u32(&mut buf, image.tokens.len() as u32);
    for (token, generation) in &image.tokens {
        put_u64(&mut buf, (*token >> 64) as u64);
        put_u64(&mut buf, *token as u64);
        put_u64(&mut buf, *generation);
    }
    buf
}

fn decode_string_props(c: &mut Cursor<'_>) -> Result<Vec<(String, Value)>> {
    let n = c.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = c.str()?;
        let v = c.value()?;
        out.push((k, v));
    }
    Ok(out)
}

fn decode(payload: &[u8]) -> Result<CheckpointImage> {
    let mut c = Cursor::new(payload);
    let generation = c.u64()?;
    let commits = c.u64()?;
    let rejected = c.u64()?;
    let compactions = c.u64()?;
    let next_key = c.u64()?;
    let node_count = c.u32()? as usize;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let key = c.u64()?;
        let label = c.str()?;
        nodes.push(CkptNode { key, label, props: decode_string_props(&mut c)? });
    }
    let edge_count = c.u32()? as usize;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let key = c.u64()?;
        let label = c.str()?;
        let src = c.u64()?;
        let tgt = c.u64()?;
        edges.push(CkptEdge { key, label, src, tgt, props: decode_string_props(&mut c)? });
    }
    let table_count = c.u32()? as usize;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let name = c.str()?;
        let col_count = c.u32()? as usize;
        let mut columns = Vec::with_capacity(col_count);
        for _ in 0..col_count {
            columns.push(c.str()?);
        }
        let slot_count = c.u32()? as usize;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            let dead = c.u8()? != 0;
            let mut row = Vec::with_capacity(col_count);
            for _ in 0..col_count {
                row.push(c.value()?);
            }
            slots.push((dead, row));
        }
        tables.push(CkptTable { name, columns, slots });
    }
    // Trailing idempotency-token section (absent in older checkpoints).
    let mut tokens = Vec::new();
    if !c.is_done() {
        let token_count = c.u32()? as usize;
        for _ in 0..token_count {
            let hi = c.u64()?;
            let lo = c.u64()?;
            let generation = c.u64()?;
            tokens.push((((hi as u128) << 64) | lo as u128, generation));
        }
    }
    if !c.is_done() {
        return Err(Error::instance("checkpoint: trailing bytes after image"));
    }
    Ok(CheckpointImage {
        generation,
        commits,
        rejected,
        compactions,
        next_key,
        nodes,
        edges,
        tables,
        tokens,
    })
}

/// The path of the checkpoint taken at `generation`.
pub(crate) fn checkpoint_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:020}.ckpt"))
}

/// Every checkpoint in `dir` as `(generation, path)`, ascending.
pub(crate) fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let names = vfs.list_dir(dir).map_err(|e| StoreError::io("checkpoint: listing", dir, e))?;
    for name in names {
        if let Some(generation) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse().ok())
        {
            out.push((generation, dir.join(&name)));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Removes leftover `ckpt-*.tmp` files from interrupted checkpoint
/// attempts (best effort — a removal failure just leaves the stray for
/// the next pass).
pub(crate) fn sweep_tmp(vfs: &dyn Vfs, dir: &Path) {
    let Ok(names) = vfs.list_dir(dir) else { return };
    for name in names {
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            let _ = vfs.remove_file(&dir.join(&name));
        }
    }
}

/// Writes a sealed checkpoint frame (see [`encode_frame`]) for
/// `generation` atomically: `*.tmp` + fsync + rename.  Sweeps stray tmp
/// files from earlier failed attempts first, so a crashed or faulted
/// checkpoint is cleaned up by the next one.
pub(crate) fn write(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    frame: &[u8],
) -> StoreResult<PathBuf> {
    sweep_tmp(vfs, dir);
    let final_path = checkpoint_path(dir, generation);
    let tmp_path = final_path.with_extension("tmp");
    let mut file =
        vfs.create(&tmp_path).map_err(|e| StoreError::io("checkpoint: creating", &tmp_path, e))?;
    file.write_at(0, frame)
        .and_then(|()| file.sync_all())
        .map_err(|e| StoreError::io("checkpoint: writing", &tmp_path, e))?;
    drop(file);
    vfs.rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io("checkpoint: publishing", &final_path, e))?;
    // Make the rename itself durable (best effort: not all platforms
    // support fsync on directories).
    let _ = vfs.sync_dir(dir);
    Ok(final_path)
}

/// Loads and validates one checkpoint file.  Validation failures are
/// typed [`StoreError::Corrupt`] naming the file; only the initial read
/// maps to [`StoreError::Io`].
pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> StoreResult<CheckpointImage> {
    let bytes = vfs.read(path).map_err(|e| StoreError::io("checkpoint: reading", path, e))?;
    if bytes.len() < 8 {
        return Err(StoreError::corrupt(path, format!("truncated ({} bytes)", bytes.len())));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if bytes.len() != 8 + len {
        return Err(StoreError::corrupt(
            path,
            format!("has {} bytes, header declares {}", bytes.len(), 8 + len),
        ));
    }
    let payload = &bytes[8..];
    if crc32(payload) != crc {
        return Err(StoreError::corrupt(path, "fails its checksum"));
    }
    decode(payload).map_err(|e| StoreError::corrupt(path, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ckpt-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes an image through the reference encoder and the shared
    /// frame builder.
    fn write_image(vfs: &dyn Vfs, dir: &Path, image: &CheckpointImage) -> StoreResult<PathBuf> {
        let mut frame = frame_buffer(0);
        frame.extend_from_slice(&encode(image));
        seal_frame(&mut frame).unwrap();
        write(vfs, dir, image.generation, &frame)
    }

    fn sample_image(generation: u64) -> CheckpointImage {
        CheckpointImage {
            generation,
            commits: 9,
            rejected: 2,
            compactions: 1,
            next_key: 11,
            nodes: vec![CkptNode {
                key: 3,
                label: "EMP".into(),
                props: vec![("id".into(), Value::Int(1)), ("name".into(), Value::str("A"))],
            }],
            edges: vec![CkptEdge {
                key: 7,
                label: "WORK_AT".into(),
                src: 0,
                tgt: 0,
                props: vec![("wid".into(), Value::Float(2.5))],
            }],
            tables: vec![CkptTable {
                name: "EMP".into(),
                columns: vec!["id".into(), "name".into()],
                slots: vec![
                    (false, vec![Value::Int(1), Value::str("A")]),
                    (true, vec![Value::Int(2), Value::Null]),
                ],
            }],
            tokens: vec![((5u128 << 64) | 6, generation)],
        }
    }

    #[test]
    fn write_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let vfs = StdVfs;
        let path = write_image(&vfs, &dir, &sample_image(12)).unwrap();
        let image = load(&vfs, &path).unwrap();
        assert_eq!(image.generation, 12);
        assert_eq!(image.commits, 9);
        assert_eq!(image.next_key, 11);
        assert_eq!(image.nodes.len(), 1);
        assert_eq!(image.nodes[0].label, "EMP");
        assert_eq!(image.edges[0].props[0].1, Value::Float(2.5));
        assert_eq!(image.tables[0].slots.len(), 2);
        assert!(image.tables[0].slots[1].0, "tombstone survives the round trip");
        assert_eq!(image.tokens, vec![((5u128 << 64) | 6, 12)]);
        assert!(list_checkpoints(&vfs, &dir).unwrap().iter().any(|(g, _)| *g == 12));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_byte_fails_the_checksum() {
        let dir = scratch_dir("flip");
        let vfs = StdVfs;
        let path = write_image(&vfs, &dir, &sample_image(3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&vfs, &path).unwrap_err();
        assert!(err.is_corrupt(), "typed corruption: {err}");
        assert!(err.to_string().contains("ckpt-"), "names the file: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_checkpoint_is_rejected() {
        let dir = scratch_dir("trunc");
        let vfs = StdVfs;
        let path = write_image(&vfs, &dir, &sample_image(5)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load(&vfs, &path).unwrap_err().is_corrupt());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_are_swept_by_the_next_write() {
        let dir = scratch_dir("sweep");
        let vfs = StdVfs;
        std::fs::write(dir.join("ckpt-00000000000000000003.tmp"), b"junk").unwrap();
        std::fs::write(dir.join("unrelated.tmp.txt"), b"keep").unwrap();
        write_image(&vfs, &dir, &sample_image(4)).unwrap();
        let names = vfs.list_dir(&dir).unwrap();
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "stray tmp removed: {names:?}");
        assert!(names.contains(&"unrelated.tmp.txt".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
