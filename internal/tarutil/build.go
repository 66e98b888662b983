package tarutil

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
)

const (
	nameSize   = 100 // the header's name field
	prefixSize = 155 // the USTAR name prefix field
	// octalSizeLimit is the first size the 12-byte octal size field cannot
	// hold (8 GiB); a larger size goes into a PAX record.
	octalSizeLimit = 1 << 33
	// modTime is the fixed mtime of every entry, 2017-05-30T00:00:00Z,
	// keeping layer bytes deterministic for a given content sequence.
	modTime = 1496102400
	// gzipLevel is the one deflate level of every Gzip Builder, the level
	// synthetic layers are written at and reassembled layers rewritten at.
	gzipLevel = gzip.DefaultCompression
)

// errLongBody is the error of a member whose reader holds more data than
// the size its header declared.
var errLongBody = errors.New("tarutil: member data longer than its header's size")

// Builder assembles a layer tarball, optionally gzip-compressed, writing to
// an underlying writer. Directories for file parents are NOT created
// implicitly; call Dir explicitly, as Docker's image builder does.
//
// It encodes its header blocks itself, byte for byte as archive/tar.Writer
// encodes the same headers: a USTAR block, a long ASCII name split between
// the prefix and name fields where a slash allows it, and otherwise — a
// name over 256 bytes, unsplittable or not ASCII, or a size of 8 GiB or
// more — a PAX extended header with path and size records before the
// block. It refuses what archive/tar refuses: a name containing NUL, a
// regular file whose name ends in a slash, a negative size, and PAX records
// over 1 MiB. Every error is sticky. A reused Builder allocates nothing per
// entry: headers are encoded into one block, names into one buffer.
type Builder struct {
	w   io.Writer    // the tar stream: the caller's writer, or zw
	zw  *gzip.Writer // the deflater, kept across Resets; nil until first needed
	gz  bool         // the tar stream is zw
	err error

	blk  [blockSize]byte
	name []byte     // the current entry's name
	pax  []byte     // the current entry's PAX records
	body bodyWriter // the current file's data
	buf  []byte     // copy buffer for readers that cannot write themselves out
}

// NewBuilder returns a Builder writing an uncompressed tar stream to w.
func NewBuilder(w io.Writer) *Builder {
	return &Builder{w: w}
}

// NewGzipBuilder returns a Builder writing a gzip-compressed tar stream to
// w, at the package's one deflate level.
func NewGzipBuilder(w io.Writer) *Builder {
	b := &Builder{}
	b.Reset(w, Gzip)
	return b
}

// Reset makes b write a new tar stream to w — gzip-compressed when framing
// is Gzip, plain otherwise — clearing its error and keeping its buffers and
// its deflater, so a pooled Builder allocates nothing per archive either.
func (b *Builder) Reset(w io.Writer, framing Framing) {
	b.w, b.gz, b.err = w, framing == Gzip, nil
	if !b.gz {
		return
	}
	if b.zw == nil {
		b.zw, _ = gzip.NewWriterLevel(w, gzipLevel) // fails only for an invalid level
	} else {
		b.zw.Reset(w)
	}
	b.w = b.zw
}

// Dir adds a directory entry.
func (b *Builder) Dir(name string) error {
	if b.err != nil {
		return b.err
	}
	b.name = append(b.name[:0], name...)
	return b.dir()
}

// File adds a regular file with the given content.
func (b *Builder) File(name string, content []byte) error {
	if b.err != nil {
		return b.err
	}
	b.name = append(b.name[:0], name...)
	if b.err = b.header('0', int64(len(content))); b.err != nil {
		return b.err
	}
	if _, b.err = b.w.Write(content); b.err != nil {
		return b.err
	}
	return b.pad(int64(len(content)))
}

// Member adds an entry whose name is held in a byte slice, the form a
// stored recipe replays its members in: a directory when dir is set (size
// and r are ignored), else a regular file of size bytes read from r. The
// data streams from r into the archive — r's WriteTo when it has one, else
// through one copy buffer the Builder keeps — and must be exactly size
// bytes long: a shorter r fails with io.ErrUnexpectedEOF, a longer one
// with an error before any byte past size is written.
func (b *Builder) Member(name []byte, dir bool, size int64, r io.Reader) error {
	if b.err != nil {
		return b.err
	}
	b.name = append(b.name[:0], name...)
	if dir {
		return b.dir()
	}
	if b.err = b.header('0', size); b.err != nil {
		return b.err
	}
	b.body = bodyWriter{w: b.w, n: size}
	if _, ok := r.(io.WriterTo); !ok && b.buf == nil {
		b.buf = make([]byte, 32<<10)
	}
	if _, b.err = io.CopyBuffer(&b.body, r, b.buf); b.err != nil {
		return b.err
	}
	if b.body.n != 0 {
		b.err = fmt.Errorf("tarutil: %s: %d of %d bytes: %w", b.name, size-b.body.n, size, io.ErrUnexpectedEOF)
		return b.err
	}
	return b.pad(size)
}

// Close writes the end of the archive, two zero blocks, and closes the gzip
// stream if there is one. The Builder must not be used afterwards, unless
// Reset.
func (b *Builder) Close() error {
	if b.err != nil {
		return b.err
	}
	for range 2 {
		if _, b.err = b.w.Write(zeroBlock[:]); b.err != nil {
			return fmt.Errorf("tarutil: closing tar: %w", b.err)
		}
	}
	if b.gz {
		if b.err = b.zw.Close(); b.err != nil {
			return fmt.Errorf("tarutil: closing gzip: %w", b.err)
		}
	}
	return nil
}

// dir writes the header of a directory named b.name, with a trailing
// slash added if the caller wrote none.
func (b *Builder) dir() error {
	if n := len(b.name); n == 0 || b.name[n-1] != '/' {
		b.name = append(b.name, '/')
	}
	b.err = b.header('5', 0)
	return b.err
}

// pad ends a file of size bytes with zeros to the next block boundary.
func (b *Builder) pad(size int64) error {
	_, b.err = b.w.Write(zeroBlock[:-size&(blockSize-1)])
	return b.err
}

// header writes the header of an entry of type typ ('0' or '5') named
// b.name, choosing the format as archive/tar.Writer does for a header with
// no format asked for: USTAR when it can hold the name, split or whole,
// and the size; PAX otherwise.
func (b *Builder) header(typ byte, size int64) error {
	name := b.name
	if bytes.IndexByte(name, 0) >= 0 {
		return fmt.Errorf("tarutil: name %q contains NUL", name)
	}
	if typ == '0' && len(name) > 0 && name[len(name)-1] == '/' {
		return fmt.Errorf("tarutil: file name %q ends in a slash", name)
	}
	if size < 0 {
		return fmt.Errorf("tarutil: %s: negative size %d", name, size)
	}
	ascii := isASCII(name)
	plain := ascii && len(name) <= nameSize // the name field holds it as is
	split, splits := 0, false
	if ascii && !plain {
		split, splits = splitUSTAR(name)
	}
	if (plain || splits) && size < octalSizeLimit {
		b.fill(typ, size)
		if splits {
			copy(b.blk[:nameSize], name[split+1:])
			copy(b.blk[345:345+prefixSize], name[:split])
		} else {
			copy(b.blk[:nameSize], name)
		}
		return b.writeBlock()
	}
	return b.paxHeader(typ, size, !plain)
}

// splitUSTAR returns where archive/tar splits a long ASCII name between the
// USTAR prefix and name fields: the last slash, a trailing one aside, with
// at most 155 bytes before it and 1 to 100 after it.
func splitUSTAR(name []byte) (int, bool) {
	end := len(name)
	if end > prefixSize+1 {
		end = prefixSize + 1
	} else if name[end-1] == '/' {
		end--
	}
	i := bytes.LastIndexByte(name[:end], '/')
	if rest := len(name) - i - 1; i <= 0 || rest > nameSize || rest == 0 || i > prefixSize {
		return 0, false
	}
	return i, true
}

// paxHeader writes a PAX extended header — a path record when withPath is
// set, a size record when size overflows the octal field — and then the
// entry's block, as archive/tar.Writer writes them: the extended header
// named <dir>/PaxHeaders.0/<base>, the block's fields best-effort ASCII.
// This is the rare path, and it allocates.
func (b *Builder) paxHeader(typ byte, size int64, withPath bool) error {
	b.pax = b.pax[:0]
	if withPath {
		b.pax = appendPAXRecord(b.pax, "path", b.name)
	}
	sizeField := size
	if size >= octalSizeLimit {
		var num [20]byte
		b.pax = appendPAXRecord(b.pax, "size", strconv.AppendInt(num[:0], size, 10))
		sizeField = 0 // archive/tar's last resort for a field it cannot hold
	}
	if len(b.pax) > maxSpecialSize {
		return fmt.Errorf("tarutil: %d bytes of PAX records for one entry, over 1 MiB", len(b.pax))
	}

	name := string(b.name)
	ext := toASCII(paxHeaderName(name))
	if len(ext) > nameSize {
		ext = ext[:nameSize]
	}
	b.blk = zeroBlock
	copy(b.blk[:nameSize], strings.TrimRight(ext, "/"))
	for _, f := range [][]byte{b.blk[100:108], b.blk[108:116], b.blk[116:124], b.blk[136:148]} {
		putOctal(f, 0) // mode, uid, gid, mtime
	}
	putOctal(b.blk[124:136], int64(len(b.pax)))
	b.blk[156] = 'x'
	copy(b.blk[257:265], "ustar\x0000")
	if err := b.writeBlock(); err != nil {
		return err
	}
	if _, err := b.w.Write(b.pax); err != nil {
		return err
	}
	if err := b.pad(int64(len(b.pax))); err != nil {
		return err
	}

	b.fill(typ, sizeField)
	ascii := toASCII(name)
	copy(b.blk[:nameSize], ascii)
	if len(ascii) > nameSize && b.blk[nameSize-1] == '/' {
		// A name cut after a slash would read as a directory: archive/tar
		// ends the field before the run of slashes instead.
		b.blk[len(strings.TrimRight(ascii[:nameSize-1], "/"))] = 0
	}
	return b.writeBlock()
}

// paxHeaderName is the name archive/tar gives the extended header of an
// entry: PaxHeaders.0 inserted before the base name, the result cleaned.
func paxHeaderName(name string) string {
	dir, file := path.Split(name)
	return path.Join(dir, "PaxHeaders.0", file)
}

// toASCII drops every byte of s that is not ASCII or is NUL, as
// archive/tar does for the header fields of a PAX entry.
func toASCII(s string) string {
	return strings.Map(func(r rune) rune {
		if r == 0 || r >= 0x80 {
			return -1
		}
		return r
	}, s)
}

// appendPAXRecord appends the record "<length> <k>=<v>\n", its length
// counting its own digits, as archive/tar formats it.
func appendPAXRecord(dst []byte, k string, v []byte) []byte {
	n := len(k) + len(v) + 3 // ' ', '=' and '\n'
	n += len(strconv.Itoa(n))
	if m := len(strconv.Itoa(n)) + len(k) + len(v) + 3; m != n {
		n = m // the length gained a digit
	}
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	dst = append(dst, k...)
	dst = append(dst, '=')
	dst = append(dst, v...)
	return append(dst, '\n')
}

// fill resets b.blk to an entry header's fields other than its name and
// checksum, as archive/tar fills them for the Builder's fixed metadata:
// mode 0755 for a directory and 0644 for a file, owner 0:0, no owner
// names, link or device, the fixed mtime, and the USTAR magic (which PAX
// shares).
func (b *Builder) fill(typ byte, size int64) {
	b.blk = zeroBlock
	mode := int64(0o644)
	if typ == '5' {
		mode = 0o755
	}
	putOctal(b.blk[100:108], mode)
	putOctal(b.blk[108:116], 0) // uid
	putOctal(b.blk[116:124], 0) // gid
	putOctal(b.blk[124:136], size)
	putOctal(b.blk[136:148], modTime)
	b.blk[156] = typ
	copy(b.blk[257:265], "ustar\x0000")
	putOctal(b.blk[329:337], 0) // device major
	putOctal(b.blk[337:345], 0) // device minor
}

// writeBlock stores b.blk's checksum — six octal digits, NUL, space; the
// field summed as spaces — and writes the block.
func (b *Builder) writeBlock() error {
	copy(b.blk[148:156], "        ")
	var sum int64
	for _, c := range b.blk[:] {
		sum += int64(c)
	}
	putOctal(b.blk[148:155], sum)
	_, err := b.w.Write(b.blk[:])
	return err
}

// putOctal writes x into a numeric field as zero-padded octal digits and a
// closing NUL. x must fit.
func putOctal(field []byte, x int64) {
	end := len(field) - 1
	for i := end - 1; i >= 0; i-- {
		field[i] = '0' + byte(x&7)
		x >>= 3
	}
	field[end] = 0
}

// bodyWriter passes a file's data on to the archive and refuses any write
// that would go past the size its header declared.
type bodyWriter struct {
	w io.Writer
	n int64 // bytes the header still owes
}

func (bw *bodyWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > bw.n {
		return 0, errLongBody
	}
	n, err := bw.w.Write(p)
	bw.n -= int64(n)
	return n, err
}
