// Positive fixture: every io copy helper aimed at the response writer
// must diagnose in the body-serving packages, also through a wrapper
// type that is still an http.ResponseWriter.
package fixture

import (
	"io"
	"net/http"
)

func serveFull(w http.ResponseWriter, body io.Reader) {
	io.Copy(w, body) // want "io.Copy into an http.ResponseWriter"
}

func serveRange(w http.ResponseWriter, body io.Reader, length int64) {
	io.CopyN(w, body, length) // want "io.CopyN into an http.ResponseWriter"
}

func serveBuffered(w http.ResponseWriter, body io.Reader, buf []byte) {
	io.CopyBuffer(w, body, buf) // want "io.CopyBuffer into an http.ResponseWriter"
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func serveCounted(w *countingWriter, body io.Reader) {
	io.Copy(w, body) // want "use blobstore.CopyBody"
}
