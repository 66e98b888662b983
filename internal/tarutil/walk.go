package tarutil

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

const (
	blockSize = 512
	// maxSpecialSize bounds the data of a PAX or GNU long-name header — the
	// limit archive/tar applies too. It is checked before anything is
	// allocated: pushed layers are attacker input.
	maxSpecialSize = 1 << 20
)

var (
	errHeader      = errors.New("invalid tar header")
	errOldSparse   = errors.New("GNU sparse file (type 'S') refused")
	errPAXSparse   = errors.New("PAX GNU.sparse file refused")
	errSpecialSize = errors.New("PAX or GNU long-name header data over 1 MiB")
)

var zeroBlock [blockSize]byte

// walk iterates over a raw (uncompressed) tar stream, invoking fn for every
// regular file and directory; w is a zero walker. Other entry kinds
// (symlinks, devices, whiteouts) are counted as files of size 0, matching
// how the paper's analyzer profiles layer content by file metadata. A PAX
// global header is not an entry: it is consumed without calling fn.
//
// The headers are decoded here, entry for entry as archive/tar decodes them
// (the package documentation lists the formats and what is refused), into
// the walker's one block buffer: an entry costs one allocation, its name.
func (w *walker) walk(r io.Reader, fn WalkFunc) error {
	w.body.R = r
	for {
		e, content, err := w.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("tarutil: reading tar header: %w", err)
		}
		if err := fn(e, content); err != nil {
			return err
		}
	}
}

// walker is the state of one walk: the current header block, the current
// entry's data, and what PAX and GNU long-name headers leave pending for
// the entry they precede.
type walker struct {
	blk       [blockSize]byte
	body      body
	pad       int64 // padding after the current entry's data
	prefixLen int   // length of the header's name prefix at blk[345:]
	longName  string
	pax       paxRecords
}

// body reads the current entry's data. It is an io.LimitedReader over the
// archive that reports a stream ending inside the data as
// io.ErrUnexpectedEOF, as archive/tar does, rather than as a short read.
type body struct{ io.LimitedReader }

func (b *body) Read(p []byte) (int, error) {
	n, err := b.LimitedReader.Read(p)
	if err == io.EOF && b.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// next returns the next entry, and io.EOF at the end of the archive.
func (w *walker) next() (Entry, io.Reader, error) {
	for {
		if w.body.N > 0 {
			if _, err := io.Copy(io.Discard, &w.body); err != nil {
				return Entry{}, nil, err
			}
		}
		if err := w.skipPadding(); err != nil {
			return Entry{}, nil, err
		}
		typ, size, err := w.readHeader()
		if err != nil {
			return Entry{}, nil, err
		}
		if size < 0 && !headerOnly(typ) {
			return Entry{}, nil, errHeader
		}
		switch typ {
		case 'x', 'g':
			data, err := w.special(size)
			if err != nil {
				return Entry{}, nil, err
			}
			pax, err := parsePAX(data)
			if err != nil {
				return Entry{}, nil, err
			}
			if typ == 'x' {
				w.pax = pax
			} else {
				// A global header applies to no entry here, and like
				// archive/tar it drops whatever was pending.
				w.pax, w.longName = paxRecords{}, ""
			}
		case 'L':
			data, err := w.special(size)
			if err != nil {
				return Entry{}, nil, err
			}
			w.longName = string(cstring(data))
		case 'K':
			// The link target is not reported: its data is skipped.
			if size > maxSpecialSize {
				return Entry{}, nil, errSpecialSize
			}
			w.setData(size)
		default:
			return w.entry(typ, size)
		}
	}
}

// entry completes the entry whose header is in w.blk: the pending records
// and long name apply, and its data becomes w.body.
func (w *walker) entry(typ byte, size int64) (Entry, io.Reader, error) {
	pax, longName := w.pax, w.longName
	w.pax, w.longName = paxRecords{}, ""
	if typ == 'S' {
		return Entry{}, nil, errOldSparse
	}
	size, err := pax.apply(size)
	if err != nil {
		return Entry{}, nil, err
	}
	var name string
	switch {
	case longName != "":
		name = longName
	case pax.path != "":
		name = strings.Clone(pax.path) // not a view of the whole record block
	default:
		name = w.name()
	}
	if typ == 0 { // pre-POSIX regular file; a trailing slash made it a directory
		typ = '0'
		if strings.HasSuffix(name, "/") {
			typ = '5'
		}
	}
	if headerOnly(typ) {
		w.setData(0)
	} else if size < 0 {
		return Entry{}, nil, errHeader
	} else {
		w.setData(size)
	}
	switch typ {
	case '5':
		return Entry{Name: name, IsDir: true, Depth: depthOf(name, true)}, nil, nil
	case '0':
		return Entry{Name: name, Size: size, Depth: depthOf(name, false)}, &w.body, nil
	default:
		return Entry{Name: name, Depth: depthOf(name, false)}, nil, nil
	}
}

// headerOnly reports whether entries of type typ carry no data whatever
// their size field says: hard and symbolic links, devices, directories and
// fifos.
func headerOnly(typ byte) bool {
	switch typ {
	case '1', '2', '3', '4', '5', '6':
		return true
	}
	return false
}

// setData makes the next n bytes of the archive, and their padding to a
// block boundary, the current entry's data.
func (w *walker) setData(n int64) {
	w.body.N = n
	w.pad = -n & (blockSize - 1)
}

// skipPadding consumes the padding after the current data. A stream that
// ends inside the padding ends the archive (io.EOF), as in archive/tar.
func (w *walker) skipPadding() error {
	pad := w.blk[:w.pad]
	w.pad = 0
	var n int
	var err error
	for n < len(pad) && err == nil {
		var nn int
		nn, err = w.body.R.Read(pad[n:])
		n += nn
	}
	if n == len(pad) && err == io.EOF {
		err = nil
	}
	return err
}

// special reads the data of a PAX or GNU long-name header.
func (w *walker) special(size int64) ([]byte, error) {
	if size > maxSpecialSize {
		return nil, errSpecialSize
	}
	w.setData(size)
	data := make([]byte, size)
	_, err := io.ReadFull(&w.body, data)
	return data, err
}

// readHeader reads and validates the next header block (parseHeader). It
// returns io.EOF at the end of the archive: at a block boundary, or after
// one zero block followed by the stream's end or by a second zero block.
func (w *walker) readHeader() (typ byte, size int64, err error) {
	r := w.body.R
	if _, err := io.ReadFull(r, w.blk[:]); err != nil {
		return 0, 0, err
	}
	if w.blk == zeroBlock {
		if _, err := io.ReadFull(r, w.blk[:]); err != nil {
			return 0, 0, err
		}
		if w.blk == zeroBlock {
			return 0, 0, io.EOF
		}
		return 0, 0, errHeader
	}
	size, prefixLen, ok := parseHeader(w.blk[:])
	if !ok {
		return 0, 0, errHeader
	}
	w.prefixLen = prefixLen
	return w.blk[156], size, nil
}

// parseHeader validates a header block as archive/tar does — the checksum,
// as a signed or an unsigned byte sum, and every numeric field of the
// block's format, octal or base-256 — and returns its size field and the
// length of its name prefix. A zero block fails the checksum. It is also
// the test that makes a blob's framing Plain (OpenLayer).
func parseHeader(b []byte) (size int64, prefixLen int, ok bool) {
	if !checksumOK(b) {
		return 0, 0, false
	}
	size, ok = parseNumeric(b[124:136])
	ok = ok && numeric(b[100:108], b[108:116], b[116:124], b[136:148]) // mode, uid, gid, mtime

	magic, version := string(b[257:263]), string(b[263:265])
	switch {
	case magic == "ustar\x00" && string(b[508:512]) == "tar\x00": // star: a shorter prefix, then atime and ctime
		ok = ok && numeric(b[329:337], b[337:345], b[476:488], b[488:500])
		prefixLen = len(cstring(b[345:476]))
	case magic == "ustar\x00": // USTAR and PAX
		ok = ok && numeric(b[329:337], b[337:345])
		prefixLen = len(cstring(b[345:500]))
	case magic == "ustar " && version == " \x00": // GNU: atime and ctime where USTAR has its prefix
		ok = ok && numeric(b[329:337], b[337:345])
		// Go before 1.8 wrote a USTAR prefix into GNU headers. Like
		// archive/tar, take the field for one when atime or ctime is set
		// but does not parse and the field is ASCII.
		if (b[345] != 0 && !numeric(b[345:357])) || (b[357] != 0 && !numeric(b[357:369])) {
			if p := cstring(b[345:500]); isASCII(p) {
				prefixLen = len(p)
			}
		}
	}
	return size, prefixLen, ok
}

// name returns the entry name of the header in w.blk — its name field,
// behind the prefix if there is one — in one allocation.
func (w *walker) name() string {
	name := cstring(w.blk[:100])
	if w.prefixLen == 0 {
		return string(name)
	}
	return string(w.blk[345:345+w.prefixLen]) + "/" + string(name)
}

// checksumOK reports whether the block's checksum field matches the sum
// of its bytes, the field itself counted as spaces; POSIX sums unsigned
// bytes and old Sun tar signed ones, and either is accepted.
func checksumOK(b []byte) bool {
	stored, ok := parseOctal(b[148:156])
	if !ok {
		return false
	}
	var unsigned, signed int64
	for i, c := range b {
		if i >= 148 && i < 156 {
			c = ' '
		}
		unsigned += int64(c)
		signed += int64(int8(c))
	}
	return stored == unsigned || stored == signed
}

// numeric reports whether every field parses as a numeric header field.
func numeric(fields ...[]byte) bool {
	for _, f := range fields {
		if _, ok := parseNumeric(f); !ok {
			return false
		}
	}
	return true
}

// parseNumeric reads a numeric header field: base-256 two's complement
// when the first byte's high bit is set, octal otherwise.
func parseNumeric(b []byte) (int64, bool) {
	if len(b) == 0 || b[0]&0x80 == 0 {
		return parseOctal(b)
	}
	var inv byte // 0xff for a negative number: -x-1 == ^x
	if b[0]&0x40 != 0 {
		inv = 0xff
	}
	var x uint64
	for i, c := range b {
		c ^= inv
		if i == 0 {
			c &= 0x7f // the format bit
		}
		if x>>56 != 0 {
			return 0, false
		}
		x = x<<8 | uint64(c)
	}
	if x>>63 != 0 {
		return 0, false
	}
	if inv == 0xff {
		return ^int64(x), true
	}
	return int64(x), true
}

// parseOctal reads an octal field: leading and trailing spaces and NULs
// are padding, and the digits end at the first NUL inside.
func parseOctal(b []byte) (int64, bool) {
	var x uint64
	for _, c := range cstring(bytes.Trim(b, " \x00")) {
		if c < '0' || c > '7' || x>>61 != 0 {
			return 0, false
		}
		x = x<<3 | uint64(c-'0')
	}
	return int64(x), true
}

// cstring returns b up to its first NUL.
func cstring(b []byte) []byte {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return b[:i]
	}
	return b
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// paxRecords is what a PAX extended header leaves for the entry it
// precedes, the last record of each key winning. Of the keys archive/tar
// merges into a header only path and size change the entry; uid, gid and
// the times are kept so that values archive/tar rejects are rejected too.
type paxRecords struct {
	path, size, uid, gid, atime, mtime, ctime string
	sparse                                    bool // a GNU.sparse.* record: refused
}

// parsePAX parses the "<length> <key>=<value>\n" records of a PAX header,
// rejecting every record archive/tar rejects.
func parsePAX(data []byte) (paxRecords, error) {
	var p paxRecords
	s := string(data)
	sparseFields := 0 // GNU.sparse.offset and .numbytes records, which alternate
	for s != "" {
		lenField, rest, found := strings.Cut(s, " ")
		n, err := strconv.ParseInt(lenField, 10, 0)
		if !found || err != nil || n < 5 || n > int64(len(s)) {
			return p, errHeader
		}
		n -= int64(len(lenField) + 1) // the record's length after the space
		if n <= 0 || rest[n-1] != '\n' {
			return p, errHeader
		}
		k, v, found := strings.Cut(rest[:n-1], "=")
		s = rest[n:]
		if !found || k == "" || strings.IndexByte(k, 0) >= 0 {
			return p, errHeader
		}
		switch k {
		case "path", "linkpath", "uname", "gname":
			if strings.IndexByte(v, 0) >= 0 {
				return p, errHeader
			}
		case "GNU.sparse.offset", "GNU.sparse.numbytes":
			if (sparseFields%2 == 0) != (k == "GNU.sparse.offset") || strings.Contains(v, ",") {
				return p, errHeader
			}
			sparseFields++
		}
		switch k {
		case "path":
			p.path = v
		case "size":
			p.size = v
		case "uid":
			p.uid = v
		case "gid":
			p.gid = v
		case "atime":
			p.atime = v
		case "mtime":
			p.mtime = v
		case "ctime":
			p.ctime = v
		}
		if strings.HasPrefix(k, "GNU.sparse.") {
			p.sparse = true
		}
	}
	return p, nil
}

// apply validates the records archive/tar merges into a header — an empty
// value leaves the header's own — and returns the entry size, which a size
// record replaces.
func (p *paxRecords) apply(size int64) (int64, error) {
	for _, v := range [...]string{p.uid, p.gid} {
		if v == "" {
			continue
		}
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			return 0, errHeader
		}
	}
	for _, v := range [...]string{p.atime, p.mtime, p.ctime} {
		if v != "" && !validPAXTime(v) {
			return 0, errHeader
		}
	}
	if p.size != "" {
		n, err := strconv.ParseInt(p.size, 10, 64)
		if err != nil {
			return 0, errHeader
		}
		size = n
	}
	if p.sparse {
		return 0, errPAXSparse
	}
	return size, nil
}

// validPAXTime reports whether v is a PAX time archive/tar accepts:
// decimal seconds, optionally signed, then optionally a dot and digits.
func validPAXTime(v string) bool {
	secs, frac, _ := strings.Cut(v, ".")
	if _, err := strconv.ParseInt(secs, 10, 64); err != nil {
		return false
	}
	return strings.Trim(frac, "0123456789") == ""
}

// depthOf computes the directory depth of a tar path as if it were cleaned
// under a root: empty and "." segments do not count, and ".." climbs one
// level, never above the root.
func depthOf(name string, isDir bool) int {
	n := 0
	for name != "" {
		seg := name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			seg, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		switch seg {
		case "", ".":
		case "..":
			if n > 0 {
				n--
			}
		default:
			n++
		}
	}
	if n == 0 || isDir {
		return n
	}
	return n - 1
}
