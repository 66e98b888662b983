// Package tarutil builds and walks Docker layer tarballs. Layers are
// transferred from the registry as gzip-compressed tar archives (§II-C);
// this package provides a streaming writer used by the synthetic dataset
// materializer and the dedup store's reassembly, and a streaming walker
// used by the analyzer and the store's ingest.
//
// Unlike `docker pull`, which extracts every layer into the storage driver
// (the overhead the paper's custom downloader avoids, §III-B), the walker
// never touches the file system: it streams entries straight out of the
// decompressor and hands metadata plus content to a callback.
//
// The walker decodes tar headers itself rather than through archive/tar,
// because at the paper's scale (1.79 M layers, 5.28 B files) the cost of
// one entry is the whole budget: a walk reads its headers into one block
// buffer and hands every entry's content through one reused reader, so an
// entry allocates only its name. It accepts what archive/tar accepts and
// rejects what it rejects, entry for entry (FuzzWalk holds it to that):
//
//   - V7, USTAR (with its name prefix), star and GNU headers; the checksum,
//     signed or unsigned; every numeric field validated, octal or base-256,
//     without overflow, and no negative size;
//   - GNU long names and long link names ('L', 'K');
//   - PAX extended headers ('x'): path and size apply to the next entry,
//     the other records are validated and ignored;
//   - a pre-POSIX regular file ('\x00') whose name ends in a slash is a
//     directory, and link, device, directory and fifo entries carry no
//     data whatever their size field says;
//   - the archive ends at the stream's end on a block boundary, after one
//     zero block and the end, or at two zero blocks; a zero block followed
//     by any other block is an error.
//
// Where it differs from archive/tar it is on purpose:
//
//   - a PAX global header ('g') is not a file: it is consumed, and no
//     phantom pax_global_header entry reaches the file counts;
//   - sparse files, old GNU ('S') or PAX GNU.sparse.*, are refused with
//     their own errors: Docker's tar writers never emit them, and a walker
//     that reported them would have to choose between the stored and the
//     expanded size;
//   - the data of a PAX or long-name header ('x', 'g', 'L', 'K') over
//     1 MiB — archive/tar's own bound — is refused from the size field,
//     before anything is read or allocated, because pushed layers are
//     attacker input.
//
// The Builder is the walker's twin on the writing side: it encodes its own
// header blocks into one block buffer, so a reused Builder writes an entry
// without allocating. Its bytes are archive/tar.Writer's for every header
// it can emit, and it refuses what archive/tar.Writer refuses (FuzzBuild
// and TestBuildMatchesArchiveTar hold it to both): synthetic layer
// digests, every figure fingerprint and every dedup reassembly depend on
// those exact bytes. Its Member entry takes the name as bytes and streams
// the data from a reader, the form in which the dedup store replays a
// stored recipe. The package imports archive/tar only in its tests, as the
// oracle in both directions.
package tarutil

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Entry describes one member of a layer tarball as seen by the walker.
type Entry struct {
	// Name is the slash-separated path of the entry inside the layer.
	Name string
	// Size is the file size in bytes (0 for directories).
	Size int64
	// IsDir reports whether the entry is a directory.
	IsDir bool
	// Depth is the directory depth of the entry: "bin/ls" has depth 1,
	// "usr/share/doc/pkg" has depth 3. The root has depth 0.
	Depth int
}

// WalkFunc receives each regular file or directory in a layer. For regular
// files, content reads the file body (it must be consumed or skipped before
// the walk advances; the walker skips any unread remainder itself, and
// reuses the reader for the next file); a body cut short by the end of the
// stream reads as io.ErrUnexpectedEOF. For directories content is nil.
// Returning an error aborts the walk.
type WalkFunc func(e Entry, content io.Reader) error

// Reader pools for WalkAuto. Layer walks are short-lived and high-volume,
// so the decompression state (a 32 KiB read buffer and a gzip inflater,
// together the dominant per-walk allocations) is recycled across walks.
var (
	bufReaderPool = sync.Pool{
		New: func() any { return bufio.NewReaderSize(nil, 32<<10) },
	}
	gzipReaderPool sync.Pool // holds *gzip.Reader; empty until first Put
)

// gzipMagic is the two-byte gzip stream signature (RFC 1952).
const gzipMagic = "\x1f\x8b"

// WalkAuto walks a layer blob that is either a gzip-compressed tarball
// (the registry wire format) or a plain tarball (the uncompressed storage
// policy the paper proposes for small layers). The format is sniffed from
// the first two bytes through a pooled bufio.Reader, so the blob is read
// exactly once — no second fetch is needed for the plain-tar fallback.
// Decompressor state is pooled across calls.
func WalkAuto(r io.Reader, fn WalkFunc) error {
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil) // drop the underlying reader before pooling
		bufReaderPool.Put(br)
	}()

	magic, err := br.Peek(len(gzipMagic))
	if len(magic) < len(gzipMagic) || string(magic) != gzipMagic {
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("tarutil: sniffing stream: %w", err)
		}
		// Not a gzip stream: walk it as a plain tarball.
		return Walk(br, fn)
	}

	zr, _ := gzipReaderPool.Get().(*gzip.Reader)
	if zr == nil {
		if zr, err = gzip.NewReader(br); err != nil {
			return fmt.Errorf("tarutil: opening gzip stream: %w", err)
		}
	} else if err = zr.Reset(br); err != nil {
		gzipReaderPool.Put(zr)
		return fmt.Errorf("tarutil: opening gzip stream: %w", err)
	}
	walkErr := Walk(zr, fn)
	closeErr := zr.Close()
	gzipReaderPool.Put(zr)
	if walkErr != nil {
		return walkErr
	}
	if closeErr != nil {
		return fmt.Errorf("tarutil: closing gzip stream: %w", closeErr)
	}
	return nil
}
