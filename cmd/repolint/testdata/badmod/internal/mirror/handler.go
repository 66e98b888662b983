// Package mirror seeds an errenvelope and a bodycopy violation: badmod's
// internal/mirror matches the Registry v2 handler scope.
package mirror

import (
	"io"
	"net/http"
)

// Handle trips errenvelope with a plain-text http.Error.
func Handle(w http.ResponseWriter, req *http.Request) {
	http.Error(w, "not found", http.StatusNotFound)
}

// Serve trips bodycopy with a bare io.Copy into the response.
func Serve(w http.ResponseWriter, body io.Reader) {
	io.Copy(w, body)
}
