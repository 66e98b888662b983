// Package tarutil builds and walks Docker layer tarballs. Layers are
// transferred from the registry as gzip-compressed tar archives (§II-C);
// this package provides a streaming writer used by the synthetic dataset
// materializer and the dedup store's reassembly, and a streaming reader
// used by the analyzer and the store's ingest. It is the only package that
// reads or writes a layer's framing.
//
// Unlike `docker pull`, which extracts every layer into the storage driver
// (the overhead the paper's custom downloader avoids, §III-B), the walker
// never touches the file system: it streams entries straight out of the
// decompressor and hands metadata plus content to a callback.
//
// A blob is read through a Layer, which decides its Framing from the first
// 512 bytes: Gzip when it starts with the gzip magic, Plain when its first
// block is a tar header the walker accepts, NotTar otherwise (manifests,
// configs). A Layer walks a Gzip blob through a pooled inflater and
// anything else as a plain archive, and then consumes the rest of the wire
// stream, so whoever hashes or tees the bytes underneath sees all of them.
// It never inflates past the end of the archive: what follows it in the
// gzip stream, the gzip trailer included, is drained as wire bytes, not
// checked.
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
// stored recipe. A Gzip Builder compresses at one deflate level, gzipLevel,
// the same for every synthetic layer and every reassembly: a recipe
// reproduces its layer's gzip bytes only because both sides deflate alike.
// The package imports archive/tar only in its tests, as the oracle in both
// directions.
package tarutil

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"

	"repro/internal/engine"
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

// Framing is how a layer blob is framed on the wire.
type Framing uint8

const (
	// NotTar is a blob that is not a layer: a manifest, a config.
	NotTar Framing = iota
	// Plain is an uncompressed tar archive.
	Plain
	// Gzip is a gzip stream, taken to hold a tar archive.
	Gzip
)

// gzipMagic is the two-byte gzip stream signature (RFC 1952).
const gzipMagic = "\x1f\x8b"

// Layer reads one layer blob: it knows the blob's framing from the start,
// walks its archive, and counts its wire bytes. A NotTar blob is read
// through Read, from its first byte. A Layer's buffers — a 32 KiB read
// buffer, the gzip inflater, the dominant cost of a short walk, and the
// walker's state — are made on first use and kept on a free list across
// layers; Close returns them.
type Layer struct {
	br      *bufio.Reader
	wire    countReader
	framing Framing
	err     error // a read error while sniffing
	zr      *gzip.Reader
	w       walker
}

var layers = engine.NewFreeList[Layer]()

// OpenLayer starts reading the blob r and decides its framing, reading no
// further than its first 512 bytes need.
func OpenLayer(r io.Reader) *Layer {
	l := layers.Get()
	l.wire = countReader{r: r}
	if l.br == nil {
		l.br = bufio.NewReaderSize(nil, 32<<10)
	}
	l.br.Reset(&l.wire)
	l.framing, l.err = NotTar, nil
	head, err := l.br.Peek(blockSize)
	switch {
	case len(head) >= len(gzipMagic) && string(head[:len(gzipMagic)]) == gzipMagic:
		l.framing = Gzip
	case len(head) == blockSize:
		if _, _, ok := parseHeader(head); ok {
			l.framing = Plain
		}
	case err != io.EOF:
		l.err = fmt.Errorf("tarutil: sniffing stream: %w", err)
	}
	return l
}

// Framing returns the blob's framing.
func (l *Layer) Framing() Framing { return l.framing }

// Read reads the blob's wire bytes.
func (l *Layer) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	return l.br.Read(p)
}

// Walk walks the blob's archive, through the inflater when the blob is
// Gzip and as a plain archive otherwise, and then consumes the rest of the
// wire stream, also after an error, so that WireBytes is the blob's size.
// A walk error wins over an error reading the rest. Walk is called at
// most once.
func (l *Layer) Walk(fn WalkFunc) error {
	err := l.err
	if err == nil {
		err = l.walk(fn)
	}
	if _, rerr := io.Copy(io.Discard, l.br); err == nil {
		err = rerr
	}
	return err
}

func (l *Layer) walk(fn WalkFunc) error {
	if l.framing != Gzip {
		return l.w.walk(l.br, fn)
	}
	var err error
	if l.zr == nil {
		l.zr, err = gzip.NewReader(l.br)
	} else {
		err = l.zr.Reset(l.br)
	}
	if err != nil {
		return fmt.Errorf("tarutil: opening gzip stream: %w", err)
	}
	return l.w.walk(l.zr, fn)
}

// WireBytes returns how many bytes of the blob have been read.
func (l *Layer) WireBytes() int64 { return l.wire.n }

// Close returns the Layer's buffers to the free list; l must not be used
// afterwards. It does not close the blob.
func (l *Layer) Close() {
	l.br.Reset(nil)
	l.wire = countReader{}
	l.w = walker{}
	layers.Put(l)
}

// countReader counts the bytes read through it.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
