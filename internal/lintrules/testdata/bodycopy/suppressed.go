// Suppression fixture: a deliberate direct copy carries a directive.
package fixture

import (
	"io"
	"net/http"
)

func serveTiny(w http.ResponseWriter, body io.Reader) {
	io.Copy(w, body) //lint:allow bodycopy fixture exercising the suppression path
}
