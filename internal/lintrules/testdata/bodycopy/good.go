// Negative fixture: copies whose destination is not the response writer
// (draining a body, filling a buffer, hashing) stay legal, and so does
// writing to the response directly.
package fixture

import (
	"bytes"
	"io"
	"net/http"
)

func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

func skip(body io.Reader, n int64) error {
	_, err := io.CopyN(io.Discard, body, n)
	return err
}

func slurp(w http.ResponseWriter, body io.Reader) {
	var buf bytes.Buffer
	io.Copy(&buf, body)
	w.Write(buf.Bytes())
}
