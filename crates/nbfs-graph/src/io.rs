//! Edge-list I/O: the Graph500 edge-file formats.
//!
//! The Graph500 benchmark materializes the generated edge list before
//! kernel 1; downstream users often want to persist or import graphs. Two
//! formats are supported:
//!
//! * **binary** — the Graph500 "packed edge" layout: little-endian pairs
//!   of vertex ids. We use `u32` pairs (scales ≤ 31, this crate's range)
//!   with an 16-byte header carrying a magic, the vertex count and the
//!   edge count, so truncated or foreign files are rejected instead of
//!   mis-parsed.
//! * **text** — one `u v` pair per line, `#` comments allowed; the common
//!   interchange format of SNAP and friends.
//!
//! All functions return [`nbfs_util::Result`]: transport failures surface
//! as [`NbfsError::Io`], format violations as [`NbfsError::InvalidData`].

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use nbfs_util::{NbfsError, Result};

use crate::edge::{Edge, EdgeList};

const MAGIC: &[u8; 8] = b"NBFSEDG1";

/// Writes the binary format to `w`.
pub fn write_binary<W: Write>(w: &mut W, edges: &EdgeList) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(edges.num_vertices as u64).to_le_bytes())?;
    w.write_all(&(edges.edges.len() as u64).to_le_bytes())?;
    for e in &edges.edges {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads the binary format from `r`.
pub fn read_binary<R: Read>(r: &mut R) -> Result<EdgeList> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NbfsError::invalid_data("not an nbfs edge file (bad magic)"));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let num_vertices = u64::from_le_bytes(buf8);
    // Ids are u32, so 2^32 vertices is the most a file can name.
    let num_vertices = match usize::try_from(num_vertices) {
        Ok(n) if num_vertices <= 1 << 32 => n,
        _ => {
            return Err(NbfsError::invalid_data(format!(
                "{num_vertices} vertices exceed the u32 vertex-id width"
            )))
        }
    };
    r.read_exact(&mut buf8)?;
    let num_edges = u64::from_le_bytes(buf8);
    let body_bytes = num_edges.checked_mul(8).ok_or_else(|| {
        NbfsError::invalid_data(format!("{num_edges} edges overflow the file size"))
    })?;
    // The header is not trusted with an allocation: read the body that is
    // actually there, then check it holds the edges the header claims.
    let mut body = Vec::new();
    r.take(body_bytes).read_to_end(&mut body)?;
    if body.len() as u64 != body_bytes {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!(
                "header claims {num_edges} edges, the file holds {}",
                body.len() / 8
            ),
        )
        .into());
    }
    let mut edges = Vec::with_capacity(body.len() / 8);
    for pair in body.chunks_exact(8) {
        let u = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
        let v = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
        if u as usize >= num_vertices || v as usize >= num_vertices {
            return Err(NbfsError::invalid_data(format!(
                "edge ({u}, {v}) out of range {num_vertices}"
            )));
        }
        edges.push(Edge { u, v });
    }
    Ok(EdgeList::new(num_vertices, edges))
}

/// Writes the text format (`u v` per line) to `w`.
pub fn write_text<W: Write>(w: &mut W, edges: &EdgeList) -> Result<()> {
    writeln!(
        w,
        "# nbfs edge list: {} vertices, {} edges",
        edges.num_vertices,
        edges.edges.len()
    )?;
    for e in &edges.edges {
        writeln!(w, "{} {}", e.u, e.v)?;
    }
    Ok(())
}

/// Reads the text format. The vertex-id space is sized by the maximum id
/// seen (plus one), or can be forced with `num_vertices`.
pub fn read_text<R: Read>(r: R, num_vertices: Option<usize>) -> Result<EdgeList> {
    let mut edges = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32> {
            tok.ok_or_else(|| {
                NbfsError::invalid_data(format!("line {}: expected two vertex ids", lineno + 1))
            })?
            .parse()
            .map_err(|e| NbfsError::invalid_data(format!("line {}: {e}", lineno + 1)))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_id = max_id.max(u).max(v);
        edges.push(Edge { u, v });
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    let el = EdgeList::new(n, edges);
    el.check_bounds().map_err(NbfsError::invalid_data)?;
    Ok(el)
}

/// Writes `edges` to `path`, picking the format from the extension
/// (`.txt`/`.el` → text, anything else → binary).
pub fn save(path: &Path, edges: &EdgeList) -> Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    match path.extension().and_then(|e| e.to_str()) {
        Some("txt") | Some("el") => write_text(&mut w, edges),
        _ => write_binary(&mut w, edges),
    }
}

/// Loads an edge list from `path`, picking the format from the extension.
pub fn load(path: &Path) -> Result<EdgeList> {
    let f = std::fs::File::open(path)?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("txt") | Some("el") => read_text(f, None),
        _ => read_binary(&mut BufReader::new(f)),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> EdgeList {
        GraphBuilder::rmat(8, 4).seed(11).build_edge_list()
    }

    #[test]
    fn binary_roundtrip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn text_roundtrip() {
        let el = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &el).unwrap();
        let back = read_text(buf.as_slice(), Some(el.num_vertices)).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn text_infers_vertex_count() {
        let input = "# comment\n0 5\n3 2\n\n";
        let el = read_text(input.as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices, 6);
        assert_eq!(el.edges.len(), 2);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x00";
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::InvalidData(_)), "{err}");
    }

    #[test]
    fn truncated_binary_rejected() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::Io(_)), "{err}");
    }

    /// A header is a claim, not an allocation: absurd counts over a short
    /// body are errors, never a capacity overflow or an abort.
    #[test]
    fn untrusted_header_counts_are_rejected() {
        let header = |vertices: u64, edges: u64| {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&vertices.to_le_bytes());
            buf.extend_from_slice(&edges.to_le_bytes());
            buf
        };
        let err = read_binary(&mut header(4, 1 << 60).as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::Io(_)), "{err}");
        let err = read_binary(&mut header(4, u64::MAX).as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::InvalidData(_)), "{err}");
        let err = read_binary(&mut header((1 << 32) + 1, 0).as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::InvalidData(_)), "{err}");
        // 2^32 vertices is the u32 id range itself and stays legal.
        assert!(read_binary(&mut header(1 << 32, 0).as_slice()).is_ok());

        let mut short = header(4, 3);
        short.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]); // one edge of three
        let err = read_binary(&mut short.as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::Io(_)), "{err}");
        assert!(err.to_string().contains("claims 3 edges"), "{err}");
    }

    #[test]
    fn out_of_range_binary_edge_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u64.to_le_bytes()); // 2 vertices
        buf.extend_from_slice(&1u64.to_le_bytes()); // 1 edge
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // vertex 7 out of range
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, NbfsError::InvalidData(_)), "{err}");
    }

    #[test]
    fn malformed_text_rejected() {
        assert!(read_text("0".as_bytes(), None).is_err());
        assert!(read_text("a b".as_bytes(), None).is_err());
    }

    #[test]
    fn save_load_by_extension() {
        let el = sample();
        let dir = std::env::temp_dir().join("nbfs-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["g.bin", "g.txt"] {
            let path = dir.join(name);
            save(&path, &el).unwrap();
            let back = load(&path).unwrap();
            assert_eq!(el, back, "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
