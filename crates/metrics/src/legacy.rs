//! Tests only: re-lay an archive in one of the layouts that are read but no
//! longer written.
//!
//! Every writer emits the inline version-3 layout (no index table). The
//! parser still reads the version-1, version-2 and indexed version-3 files
//! that earlier writers left on disk, and [`crate::archive::ArchiveAppender`]
//! still fills an indexed file's spare slots. [`relay`] turns a writer's
//! archive into the same archive in one of those layouts — the same chunk
//! frames and model tail behind a re-encoded header and a chunk index — so
//! each test can run on the layout written today and on the layouts only
//! read.
//!
//! Compiled for this crate's unit tests and, through the `legacy-layouts`
//! feature, for the workspace's integration tests; no library build enables
//! it.

use crate::archive::ArchiveReader;
use crate::container::{
    write_chunk_entry, ArchiveHeader, ChunkEntry, ARCHIVE_VERSION, ARCHIVE_VERSION_APPEND,
    ARCHIVE_VERSION_MODELS,
};

/// A layout the parser reads but no writer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Version 1: header and chunk index, no model section.
    V1,
    /// Version 2: version 1 plus the model-section length and model tail.
    V2,
    /// Version 3 with an index table of `chunk count + spare` slots, the
    /// spare ones zero-filled for appends.
    Indexed {
        /// Zero-filled index slots after the chunk count.
        spare: usize,
    },
}

/// `archive` (any valid archive) re-laid as `layout`: the same chunk frames
/// and model tail byte for byte, behind a header of the layout's version and
/// an index whose offsets point at those frames.
///
/// # Panics
///
/// If `archive` does not open, or if it carries models and `layout` is
/// [`Layout::V1`], which has nowhere to put them.
pub fn relay(archive: &[u8], layout: Layout) -> Vec<u8> {
    let reader = ArchiveReader::open(archive).expect("relay needs a valid archive");
    let old = reader.header();
    let (version, index_cap) = match layout {
        Layout::V1 => (ARCHIVE_VERSION, 0),
        Layout::V2 => (ARCHIVE_VERSION_MODELS, 0),
        Layout::Indexed { spare } => (ARCHIVE_VERSION_APPEND, old.chunk_count() + spare),
    };
    assert!(
        version > ARCHIVE_VERSION || old.model_len == 0,
        "a version-1 archive cannot carry models"
    );
    let header = ArchiveHeader {
        version,
        index_cap,
        ..old
    };
    let mut out = Vec::with_capacity(header.data_start() + archive.len() - old.data_start());
    header.write(&mut out);
    let mut offset = header.data_start() as u64;
    for entry in reader.entries() {
        write_chunk_entry(&mut out, &ChunkEntry { offset, ..*entry });
        offset += entry.len;
    }
    out.resize(header.data_start(), 0);
    out.extend_from_slice(&archive[old.data_start()..]);
    out
}
